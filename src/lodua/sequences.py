"""Regular-sequence testing with kernel certificates."""

from .errors import InvalidInput
from .modules import FPModule, base_change, scalar_map, scalar_matrix


class RegularityVerdict:
    def __init__(self, regular, stage=None, witness=None, quotient_nonzero=None):
        self.regular = regular
        self.stage = stage          # 1-based index of the failing multiplier
        self.witness = witness      # a kernel generator, as coordinates
        self.quotient_nonzero = quotient_nonzero

    def __bool__(self):
        return self.regular

    def describe(self):
        out = {"regular": self.regular}
        if self.stage is not None:
            out["stage"] = self.stage
        if self.witness is not None:
            out["witness"] = [e.render() for e in self.witness]
        if self.quotient_nonzero is not None:
            out["final_quotient_nonzero"] = self.quotient_nonzero
        return out


def is_regular_sequence(ring, seq):
    """x_i must act injectively on A/(x_1..x_(i-1)); final quotient nonzero.

    Kernels are computed by syzygies; a failure carries the kernel witness.
    Over a completion A^ of A the injectivity steps are certified in A (at
    finite precision every x in the completion ideal is a zerodivisor), and
    A^ is flat over A, so they hold in A^.  Whether the final quotient is
    nonzero is decided in A^: x - 1 is regular in Q[x], a unit in Q[[x]].
    """
    base = ring.underlying()
    seq = [base.el(ring.el(x)) for x in seq]
    if not seq:
        raise InvalidInput("need a nonempty sequence")
    quotient = FPModule.free(base, 1)
    for i, x in enumerate(seq):
        K, incl = scalar_map(quotient, x).kernel()
        if not K.is_zero():
            for t in range(K.ngens):
                w = incl.col(t)
                if not quotient.contains_in_relations(w):
                    return RegularityVerdict(False, stage=i + 1, witness=w)
        quotient = FPModule(base, quotient.ngens, quotient.relations
                            + scalar_matrix(base, quotient.ngens, x))
    if base is not ring:
        quotient = base_change(quotient, ring)
    nonzero = not quotient.is_zero()
    if not nonzero:
        return RegularityVerdict(False, stage=len(seq),
                                 witness=None, quotient_nonzero=False)
    return RegularityVerdict(True, quotient_nonzero=True)
