import dataclasses
import math

import numpy as np
import pytest


@dataclasses.dataclass
class Outcome:
    """One member's row of the stepper's _Step record, field by field."""

    termination: object
    cause: str
    dt: float
    retries: int
    residual_u: float
    residual_v: float
    mass_new: float
    source_integral: float
    max_u: float
    min_u: float
    min_v: float


def outcomes(step) -> list[Outcome]:
    """The rows of a _Step that stepper._advance returns, one Outcome each."""
    n = len(step.dt)
    return [
        Outcome(
            *step.ends.get(i, (None, "")), step.dt[i], step.retries[i], step.rel[i],
            step.rel[n + i], step.mass[i], step.source[i], step.max_u[i], step.min_u[i],
            step.min_v[i],
        )
        for i in range(n)
    ]


def laplacian(f, grid):
    """L_h f, the second-order Neumann Laplacian: the diffusion kernel at -1/h^2 on zeros."""
    from kschemo import operators

    out = np.zeros(f.shape)
    operators._diffuse(out, f, [(-1.0 / (h * h), left, right) for h, left, right in grid.faces])
    return out


def proposed_dt(u, v, grid, params, cfg, integral, scheme="upwind"):
    """stepper.adapt_dt on the one-row batch of ``u`` and ``v``: the dt a
    march under the face ``scheme`` proposes for one member with these
    fields and nonlocal integral, its v gradients read off the transport
    kernel as a step reads them."""
    from kschemo import operators, stepper

    u, v = u[None], v[None]
    grad_max = ()
    if params.chi > 0:
        transport = operators._transport(grid, scheme, [params.chi])
        grad_max = operators._chemo_divergence(np.zeros(u.shape), u, v, transport)
    rates = stepper._rates([params])
    umax = [float(u.max())]
    (dt,) = stepper.adapt_dt(umax, rates, grid, cfg, [integral], grad_max, [math.inf])
    return dt


class InlineFuture:
    """A job of InlinePool: it runs when its result is first read."""

    def __init__(self, fn, args):
        self.fn, self.args = fn, args
        self.state, self.value, self.error = "pending", None, None

    def result(self):
        if self.state == "cancelled":
            raise AssertionError("result read after cancel")
        if self.state == "pending":
            self.state = "finished"
            try:
                self.value = self.fn(*self.args)
            except Exception as exc:
                self.error = exc
        if self.error is not None:
            raise self.error
        return self.value


class InlinePool:
    """Stands in for ProcessPoolExecutor in this process: it records its
    size and the futures in submit order, and starts no process."""

    def __init__(self, max_workers=None):
        self.max_workers = max_workers
        self.futures: list[InlineFuture] = []
        self.shut_down = False

    def submit(self, fn, *args):
        self.futures.append(InlineFuture(fn, args))
        return self.futures[-1]

    def shutdown(self, wait=True, cancel_futures=False):
        self.shut_down = True
        for future in self.futures:
            if cancel_futures and future.state == "pending":
                future.state = "cancelled"


@pytest.fixture
def inline_pools(monkeypatch):
    """Call it to put InlinePool in place of ProcessPoolExecutor for the rest
    of the test; it returns the list of the pools stepper._job_results makes."""

    def install() -> list[InlinePool]:
        from kschemo import stepper

        pools = []

        def make(**kwargs):
            pools.append(InlinePool(**kwargs))
            return pools[-1]

        monkeypatch.setattr(stepper, "ProcessPoolExecutor", make)
        return pools

    return install


@pytest.fixture
def one_step(monkeypatch):
    """Call it as one_step(state, params, grid, cfg, forcing=None, dt_cap=None,
    dt=None, scheme="upwind") for one step of one member as a march under
    the face ``scheme`` takes it: (the new State, or None when the step ends
    the run, and its Outcome).  ``dt``, when given, stands in for the
    stability proposal, an oversized one included."""
    from kschemo import State, stepper

    def step(state, params, grid, cfg, forcing=None, dt_cap=None, dt=None, scheme="upwind"):
        cap = math.inf if dt_cap is None else dt_cap
        with monkeypatch.context() as patch:
            if dt is not None:
                patch.setattr(stepper, "adapt_dt", lambda *args: [min(dt, args[-1][0])])
            with stepper._march(1, grid, scheme) as plan:
                u, v, taken = stepper._advance(
                    plan, state.u[None], state.v[None], [state.t], [params], grid, cfg,
                    forcing, [cap], [float(state.u.max())],
                )
        (outcome,) = outcomes(taken)
        if outcome.termination is not None:
            return None, outcome
        return State(u[0], v[0], state.t + outcome.dt, outcome.dt), outcome

    return step
