"""The benchmark's three workloads and the checks of their outputs.

Every input is made from the workload seed: the Iris train/test split,
the model's initial angles, the training shuffle and the greedy search
streams. A round is the timed unit; every round of a run repeats the
same calls on the same inputs. The program is reached only through its
public functions, looked up on their modules at call time so that the
tracer can wrap them.
"""

from __future__ import annotations

import dataclasses
import sys
from dataclasses import dataclass, field

import numpy as np

from pqc_forge import optimizer, qnn
from pqc_forge.greedy import GreedyParams
from pqc_forge.optimizer import OptimizeConfig, OptimizeMode
from pqc_forge.qnn import training

import checks
from checks import CheckError, Pass

GRAD_BATCH = 16


@dataclass
class State:
    """What set-up hands the timed rounds: datasets, model and seed."""

    seed: int
    data: object  # Dataset
    model: object  # Model
    retrain_data: object  # Dataset whose train split retraining uses


@dataclass
class Produced:
    """A model a round produced and the test accuracy the program gave it."""

    label: str
    model: object
    accuracy: float


@dataclass
class RoundOut:
    """Everything one round returns, for the checks after its timer stops."""

    operations: int
    passes: list[Pass] = field(default_factory=list)
    models: list[Produced] = field(default_factory=list)
    rows: dict = field(default_factory=dict)  # sweep rows per mode


class Recorder:
    """Keeps every ``optimizer.optimize`` call made inside the block."""

    def __enter__(self):
        self.passes: list[Pass] = []
        self._original = optimizer.optimize

        def record(c, cfg, *args, **kwargs):
            out, report = self._original(c, cfg, *args, **kwargs)
            self.passes.append(Pass(c, cfg, out, report))
            return out, report

        optimizer.optimize = record
        return self

    def __exit__(self, *exc):
        optimizer.optimize = self._original


def _accuracy(model, data) -> float:
    return qnn.accuracy(model, data.test_x, data.test_y)


class Workload:
    """Set-up shared by the workloads: the Iris split and the model."""

    def dataset(self, seed: int):
        return qnn.load_dataset("iris", seed=seed)

    def setup(self, seed: int) -> State:
        data = self.dataset(seed)
        return State(seed, data, qnn.build_model(self.spec, data, seed=seed), data)

    def check(self, st: State, out: RoundOut, accuracies: dict) -> None:
        """Checks particular to the workload, after the common ones."""


class Pipeline(Workload):
    """Train, optimize, retrain, with the test accuracy after each step."""

    mode = OptimizeMode.PER_GATE
    tolerance = 0.05

    def round(self, st: State) -> RoundOut:
        cfg = OptimizeConfig(self.tolerance, GreedyParams(seed=st.seed), self.mode)
        with Recorder() as rec:
            trained, _ = qnn.train(st.model, st.data, qnn.TrainConfig(self.epochs, seed=st.seed))
            pre = _accuracy(trained, st.data)
            optimized = trained.with_ansatz(optimizer.optimize(trained.ansatz, cfg)[0])
            opt = _accuracy(optimized, st.data)
            retrained, _ = qnn.retrain(
                optimized, st.retrain_data, qnn.TrainConfig(self.retrain_epochs, seed=st.seed)
            )
            post = _accuracy(retrained, st.data)
        return RoundOut(
            operations=3,
            passes=rec.passes,
            models=[
                Produced("trained", trained, pre),
                Produced("optimized", optimized, opt),
                Produced("retrained", retrained, post),
            ],
        )


class Bel8Pipeline(Pipeline):
    """Acceptance criterion 4's pipeline on one seed, with shorter training.

    BEL(5,8) on Iris, per-gate optimize at tolerance 0.05, as in the
    criterion; 6 + 3 epochs instead of 50 + 20 keep a round near six
    seconds, so that a run's median is taken over several rounds. The
    criterion's circuit bands hold per seed at any of these lengths. Its
    accuracy clause, retrained ≥ pre - 0.10, holds on the median of its
    five seeds but not on every seed even after 50 + 20 epochs (seeds 5
    and 12 retrain to pre - 0.133), so a run prints it on stderr and does
    not gate on it.
    """

    name = "bel8-pipeline"
    spec = qnn.LayerSpec(qnn.LayerKind.BASIC_ENTANGLER, 5, 8)
    epochs, retrain_epochs = 6, 3

    def check(self, st: State, out: RoundOut, accuracies: dict) -> None:
        (p,) = out.passes
        checks.check_direction(p.report.before, p.report.after)
        pre, post = accuracies["trained"], accuracies["retrained"]
        print(f"{self.name}: test accuracy {pre:.3f} trained, {accuracies['optimized']:.3f} "
              f"optimized, {post:.3f} retrained (criterion 4 wants ≥ {pre - 0.10:.3f})",
              file=sys.stderr)


class Sel10Pipeline(Pipeline):
    """SEL on 10 qubits: short training, fused optimize, retrain.

    Training takes one epoch over a stratified 48-row subset of the train
    split (three batches of 16); retraining takes one step, on 16 of
    those rows; evaluation uses the whole test split. A step's cost grows
    with the angles left to train, which vary with the seed, so keeping
    retraining to one step keeps a round near five seconds on every seed.
    After one epoch most angles are still near their random start, so the
    fused pass at 0.05 leaves many ``r`` gates untouched on every seed and
    always hits the split fault.
    """

    name = "sel10-pipeline"
    spec = qnn.LayerSpec(qnn.LayerKind.STRONGLY_ENTANGLING, 5, 10)
    mode = OptimizeMode.FUSED_RUNS
    epochs, retrain_epochs, per_class, retrain_rows = 1, 1, 16, 16

    def dataset(self, seed: int):
        data = super().dataset(seed)
        rng = np.random.default_rng(seed)
        labels = data.labels[data.train_idx]
        keep = [
            rng.choice(data.train_idx[labels == c], self.per_class, replace=False)
            for c in range(data.n_classes)
        ]
        return dataclasses.replace(data, train_idx=np.sort(np.concatenate(keep)))

    def setup(self, seed: int) -> State:
        st = super().setup(seed)
        rng = np.random.default_rng([seed, 2])
        rows = rng.choice(st.data.train_idx, self.retrain_rows, replace=False)
        st.retrain_data = dataclasses.replace(st.data, train_idx=np.sort(rows))
        return st


class Sel8Sweep(Workload):
    """``optimizer.sweep`` of a random SEL(5,8) in both modes, no training.

    The tolerances are chosen so that whether a pass hits the ``r``-gate
    split fault does not depend on the seed: on seeds 0-29 per-gate
    passes left 16-28 ``r`` gates untouched at 0.001 and none from 0.02
    up, and fused passes left at least 6 untouched up to 0.05 (0.01
    per-gate and 0.1 fused went either way). Two tolerances keep a round
    near seven seconds.
    """

    name = "sel8-sweep"
    spec = qnn.LayerSpec(qnn.LayerKind.STRONGLY_ENTANGLING, 5, 8)
    tolerances = (0.001, 0.05)

    def round(self, st: State) -> RoundOut:
        out = RoundOut(operations=2 * len(self.tolerances))

        def evaluate(circuit):
            model = st.model.with_ansatz(circuit)
            acc = _accuracy(model, st.data)
            out.models.append(Produced(f"sweep {len(out.models)}", model, acc))
            return acc

        with Recorder() as rec:
            for mode in OptimizeMode:
                cfg = OptimizeConfig(self.tolerances[0], GreedyParams(seed=st.seed), mode)
                out.rows[mode.value] = optimizer.sweep(
                    st.model.ansatz, self.tolerances, cfg, evaluate=evaluate
                )
        out.passes = rec.passes
        return out

    def check(self, st: State, out: RoundOut, accuracies: dict) -> None:
        fields = ("tolerance", "depth", "gate_count", "remaining_parameters", "replaced")
        for mode, rows in out.rows.items():
            passes = [p for p in out.passes if p.report.mode == mode]
            checks.check_nested(passes)
            for row, p in zip(rows, passes):
                m = p.report.after
                want = (p.cfg.tolerance, m.decomposed_depth, m.decomposed_gate_count,
                        m.remaining_parameters, p.report.replaced_count)
                if tuple(row[k] for k in fields) != want:
                    raise CheckError(f"sweep row {row} disagrees with its pass {want}")
        reported = [r["accuracy"] for rows in out.rows.values() for r in rows]
        if reported != [m.accuracy for m in out.models]:
            raise CheckError("sweep accuracy column differs from the evaluated models")


WORKLOADS = {w.name: w for w in (Bel8Pipeline(), Sel8Sweep(), Sel10Pipeline())}


def check_round(wl, st: State, out: RoundOut) -> int:
    """Check every output of a round; returns the number of failed passes."""
    failed = sum(1 for p in out.passes if not checks.check_pass(p))
    accuracies = {}
    for prod in out.models:
        want = checks.reference_logits(prod.model, st.data.test_x)
        checks.check_logits(training.logits_batch(prod.model, st.data.test_x), want)
        accuracies[prod.label] = checks.check_accuracy(prod.accuracy, want, st.data.test_y)
    wl.check(st, out, accuracies)
    return failed


def grad_batch(st: State):
    """A seeded 16-row batch of the train split for the gradient check."""
    rng = np.random.default_rng([st.seed, 1])
    rows = rng.choice(len(st.data.train_idx), GRAD_BATCH, replace=False)
    return st.data.train_x[rows], st.data.train_y[rows]


def check_gradient(st: State) -> None:
    x, y = grad_batch(st)
    loss, grad = training.loss_and_gradient(st.model, x, y)
    checks.check_gradient(st.model, x, y, loss, grad)
