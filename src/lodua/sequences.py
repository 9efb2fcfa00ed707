"""Regular-sequence testing with kernel certificates."""

from .errors import InvalidInput
from .modules import FPModule, scalar_map, scalar_matrix


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
    """
    seq = [ring.el(x) for x in seq]
    if not seq:
        raise InvalidInput("need a nonempty sequence")
    quotient = FPModule.free(ring, 1)
    for i, x in enumerate(seq):
        K, incl = scalar_map(quotient, x).kernel()
        if not K.is_zero():
            for t in range(K.ngens):
                w = incl.col(t)
                if not quotient.contains_in_relations(w):
                    return RegularityVerdict(False, stage=i + 1, witness=w)
        quotient = FPModule(ring, quotient.ngens, quotient.relations
                            + scalar_matrix(ring, quotient.ngens, x))
    nonzero = not quotient.is_zero()
    if not nonzero:
        return RegularityVerdict(False, stage=len(seq),
                                 witness=None, quotient_nonzero=False)
    return RegularityVerdict(True, quotient_nonzero=True)
