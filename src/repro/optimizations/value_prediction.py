"""Value prediction (Section IV-C3 of the paper).

A confidence-thresholded last-value predictor in the style of Lipasti et
al. (MICRO'96) / the CVP championship baselines.  Predictions break load
dependences at dispatch; verification happens at writeback, and a wrong
prediction squashes everything younger than the predicted instruction —
the squash penalty is the receiver-visible outcome, symmetric with
branch-predictor attacks (Section IV-C4).

The MLD (Figure 3, Example 7) says the observable outcome concatenates
the entry's confidence with whether the prediction matched the resolved
value: both are modeled here (no prediction below threshold, squash on
mismatch above it).
"""

from repro.isa.opcodes import Op
from repro.pipeline.plugins import FF_PURE, OptimizationPlugin


class ValuePredictionPlugin(OptimizationPlugin):
    """PC-indexed value predictor with saturating confidence.

    Two prediction heuristics from the literature the paper surveys:

    * ``"last_value"`` — predict the previous resolved value (Lipasti
      et al.);
    * ``"stride"`` — predict previous value + learned stride, covering
      pointer-bump and counter loads a last-value predictor misses.

    Table entries are ``[value, confidence, stride]``.
    """

    name = "value-prediction"

    #: Predicts at dispatch, verifies at writeback — pure.
    ff_policy = FF_PURE

    metric_views = {"predictions": "opt.vp.predictions",
                    "correct": "opt.vp.correct",
                    "incorrect": "opt.vp.mispredict_squashes"}

    PREDICTORS = ("last_value", "stride")

    #: Static leakage contract (:mod:`repro.lint.contracts`): correct
    #: vs squashed prediction is decided by comparing the predicted
    #: value against the real one, so the produced (loaded) value feeds
    #: the MLD regardless of predictor heuristic.  Predicted ops follow
    #: the ``ops`` constructor kwarg.
    LINT_CONTRACT = {
        "mld": "value_misprediction",
        "rows": (
            {"ops": "kwarg:ops", "taps": ("loaded_value",),
             "detail": "predict-then-verify squashes iff the produced "
                       "value differs from the prediction"},
        ),
        "defaults": {"ops": (Op.LOAD,)},
        # Dropping LOAD from the predicted op set must kill the leak:
        # the row is structurally conditional on the ops kwarg.
        "domains": {"ops": (Op.LOAD,)},
    }

    def __init__(self, ops=(Op.LOAD,), threshold=2, max_confidence=7,
                 table_size=1024, predictor="last_value"):
        super().__init__()
        if predictor not in self.PREDICTORS:
            raise ValueError(f"predictor must be one of "
                             f"{self.PREDICTORS}")
        self.ops = frozenset(ops)
        self.threshold = threshold
        self.max_confidence = max_confidence
        self.table_size = table_size
        self.predictor = predictor
        self._table = {}  # pc -> [value, confidence, stride]
        self.stats = {"predictions": 0, "correct": 0, "incorrect": 0,
                      "trainings": 0}

    def reset(self):
        self._table.clear()

    def _predicted_value(self, entry):
        if self.predictor == "stride":
            return (entry[0] + entry[2]) & ((1 << 64) - 1)
        return entry[0]

    def on_dispatch(self, dyn):
        if dyn.inst.op not in self.ops or dyn.pdst is None:
            return
        entry = self._table.get(dyn.pc)
        if entry is None or entry[1] < self.threshold:
            return
        prediction = self._predicted_value(entry)
        dyn.vp_predicted = True
        dyn.vp_value = prediction
        self.cpu.prf_value[dyn.pdst] = prediction
        self.cpu.prf_ready[dyn.pdst] = True
        self.stats["predictions"] += 1
        if self.trace.enabled:
            self.trace.emit("opt", self.name, seq=dyn.seq, pc=dyn.pc,
                            info="predict")

    def on_result(self, dyn, value):
        if dyn.inst.op not in self.ops or dyn.squashed:
            return
        self.stats["trainings"] += 1
        entry = self._table.get(dyn.pc)
        if entry is None:
            if len(self._table) >= self.table_size:
                self._table.pop(next(iter(self._table)))
            self._table[dyn.pc] = [value, 0, 0]
        else:
            if self.predictor == "stride":
                stride = (value - entry[0]) & ((1 << 64) - 1)
                if stride == entry[2]:
                    entry[1] = min(self.max_confidence, entry[1] + 1)
                else:
                    entry[2] = stride
                    entry[1] = 0
                entry[0] = value
            elif entry[0] == value:
                entry[1] = min(self.max_confidence, entry[1] + 1)
            else:
                entry[0] = value
                entry[1] = 0
        if dyn.vp_predicted:
            if value == dyn.vp_value:
                self.stats["correct"] += 1
                outcome = "correct"
            else:
                # The mismatch squashes everything younger (the
                # receiver-visible penalty the VP attack times).
                self.stats["incorrect"] += 1
                outcome = "mispredict_squash"
            if self.trace.enabled:
                self.trace.emit("opt", self.name, seq=dyn.seq,
                                pc=dyn.pc, info=outcome)

    def prime(self, pc, value, confidence=None, stride=0):
        """Attacker preconditioning: install a prediction directly.

        Used by active attacks (Section II-2) that train the predictor
        through aliasing code before the victim runs.
        """
        if confidence is None:
            confidence = self.threshold
        self._table[pc] = [value, confidence, stride]
