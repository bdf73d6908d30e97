"""Gym-style congestion-control environment over the DES (ROADMAP item 3).

:class:`CCEnv` wraps a simulator world as an episodic environment with the
standard five-tuple step protocol (``obs, reward, terminated, truncated,
info``).  The pieces:

* **World**: a ``builder()`` callable constructs the episode's topology and
  flows and returns a :class:`World` (sim, network, flows, senders).  The
  first ``reset()`` builds once and captures a
  :class:`~repro.sim.snapshot.WorldSnapshot`; every reset materialises a
  fresh clone — byte-identical to a fresh build (pinned by
  ``tests/test_tune.py``) and far cheaper than rebuilding routes.
* **Stepping**: each ``step`` advances the DES either a fixed sim-time
  stride (``stride_ns``) or until ``ack_batch`` further ACKs have arrived
  at the senders, whichever the env was configured with.
* **Observations**: plain dicts of lists drawn live from the world —
  per-port backlog / PFC pause state, per-flow delay samples and window
  state, per-virtual-priority inflight occupancy, global drop/PFC
  counters.  Same series the telemetry sampler exports, read directly so
  worlds need no recorder hooks attached (see
  :class:`~repro.sim.snapshot.SnapshotHookError`).
* **Actions**: per-flow cwnd/rate overrides applied through the
  ``cc.external`` hook (:meth:`repro.cc.base.CongestionControl.external_override`).
* **Rewards**: goodput, negative-FCT, or fairness-weighted goodput
  utilities (:data:`REWARDS`).

``gymnasium`` is an optional extra: :func:`make_gymnasium_env` returns a
``gymnasium.Env`` adapter when the package is importable and raises a clear
error otherwise.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Sequence

from ..sim.snapshot import WorldSnapshot
from .spaces import BoxSpace

__all__ = ["World", "CCEnv", "REWARDS", "jain_index", "make_gymnasium_env"]


class World(NamedTuple):
    """Everything an episode needs, in snapshot-root order."""

    sim: object
    net: object
    flows: list
    senders: list


def jain_index(xs: Sequence[float]) -> float:
    """Jain's fairness index: 1 for equal shares, → 1/n as one share dominates."""
    xs = [x for x in xs if x > 0]
    if not xs:
        return 1.0
    s = sum(xs)
    return (s * s) / (len(xs) * sum(x * x for x in xs))


def _reward_goodput(env: "CCEnv", delta_acked: List[int], dt_ns: int) -> float:
    """Aggregate goodput over the step, in Gbit/s."""
    if dt_ns <= 0:
        return 0.0
    return sum(delta_acked) * 8.0 / dt_ns  # bytes/ns * 8 == Gbit/s


def _reward_neg_fct(env: "CCEnv", delta_acked: List[int], dt_ns: int) -> float:
    """-(unfinished flows x dt), in flow-microseconds.

    Summed over an episode this is minus the total flow-completion time of
    all flows (each flow contributes dt while unfinished), so maximising
    the return minimises mean FCT without waiting for episode end.
    """
    unfinished = sum(1 for f in env.world.flows if not f.done)
    return -unfinished * dt_ns / 1e3


def _reward_goodput_fairness(env: "CCEnv", delta_acked: List[int], dt_ns: int) -> float:
    """Goodput (Gbit/s) scaled by Jain fairness across active flows' shares."""
    return _reward_goodput(env, delta_acked, dt_ns) * jain_index(delta_acked)


#: name -> reward_fn(env, per-flow acked-byte deltas, dt_ns) -> float
REWARDS: Dict[str, Callable] = {
    "goodput": _reward_goodput,
    "neg_fct": _reward_neg_fct,
    "goodput_fairness": _reward_goodput_fairness,
}


class CCEnv:
    """Gym-style env: the DES advances between agent decisions.

    Parameters
    ----------
    builder:
        Zero-argument callable returning a :class:`World` (or a 4-tuple in
        the same order).  Must be deterministic for reproducible resets —
        seed its RNG from a constant or from ``builder_seed``-style closure
        state, not from wall clock.
    stride_ns / ack_batch:
        Exactly one stepping mode: advance a fixed sim-time stride, or run
        until ``ack_batch`` more ACKs have been counted across all senders
        (falling back to the next event horizon when the world goes idle).
    horizon_ns:
        Episode truncation bound on sim time (default 10 ms).
    reward:
        Key into :data:`REWARDS`, or a callable with the same signature.
    """

    metadata = {"render_modes": []}

    def __init__(
        self,
        builder: Callable[[], World],
        *,
        stride_ns: Optional[int] = None,
        ack_batch: Optional[int] = None,
        horizon_ns: int = 10_000_000,
        reward="goodput",
        allow_hooks: bool = False,
    ):
        if (stride_ns is None) == (ack_batch is None):
            raise ValueError("choose exactly one of stride_ns / ack_batch")
        if stride_ns is not None and stride_ns <= 0:
            raise ValueError("stride_ns must be positive")
        if ack_batch is not None and ack_batch <= 0:
            raise ValueError("ack_batch must be positive")
        self._builder = builder
        self.stride_ns = stride_ns
        self.ack_batch = ack_batch
        self.horizon_ns = horizon_ns
        self.allow_hooks = allow_hooks
        if callable(reward):
            self._reward_fn = reward
        else:
            try:
                self._reward_fn = REWARDS[reward]
            except KeyError:
                raise ValueError(
                    f"unknown reward {reward!r}; choose from {sorted(REWARDS)}"
                ) from None
        self._snapshot: Optional[WorldSnapshot] = None
        self.world: Optional[World] = None
        self._prev_acked: List[int] = []
        self._episode_steps = 0

    # ------------------------------------------------------------------
    # reset / step
    # ------------------------------------------------------------------
    def reset(self, *, seed=None, options=None):
        """Materialise a fresh world from the pristine snapshot.

        The first call builds the world once via ``builder`` and snapshots
        it; subsequent resets are a single deep copy.  ``seed`` is accepted
        for protocol compatibility but ignored: episode determinism comes
        from the builder, and byte-identical resets are the point.
        """
        if self._snapshot is None:
            built = self._builder()
            world = World(*built)
            self._snapshot = WorldSnapshot(
                world.sim,
                world.net,
                world.flows,
                world.senders,
                allow_hooks=self.allow_hooks,
            )
        self.world = World(*self._snapshot.materialize())
        self._prev_acked = [s.acked_payload for s in self.world.senders]
        self._episode_steps = 0
        return self._observe(), {"t_ns": self.world.sim.now}

    def step(self, action=None):
        if self.world is None:
            raise RuntimeError("call reset() before step()")
        world = self.world
        sim = world.sim
        if action:
            self._apply_action(action)
        t0 = sim.now
        acked0 = sum(s.acked_count for s in world.senders)
        if self.stride_ns is not None:
            sim.run(until=min(t0 + self.stride_ns, self.horizon_ns))
        else:
            # ACK-batch mode: drain events until enough ACKs (or idle/horizon).
            while sim.pending and sim.now < self.horizon_ns:
                nxt = sim.peek_time()
                if nxt is None or nxt > self.horizon_ns:
                    break
                sim.run(until=nxt)
                if sum(s.acked_count for s in world.senders) - acked0 >= self.ack_batch:
                    break
        dt_ns = sim.now - t0
        acked = [s.acked_payload for s in world.senders]
        delta = [a - p for a, p in zip(acked, self._prev_acked)]
        self._prev_acked = acked
        self._episode_steps += 1
        reward = self._reward_fn(self, delta, dt_ns)
        terminated = all(f.done for f in world.flows) or not sim.pending
        truncated = not terminated and sim.now >= self.horizon_ns
        info = {
            "t_ns": sim.now,
            "dt_ns": dt_ns,
            "step": self._episode_steps,
            "acked_delta_bytes": delta,
            "flows_done": sum(1 for f in world.flows if f.done),
        }
        return self._observe(), reward, terminated, truncated, info

    def close(self) -> None:
        self.world = None

    # ------------------------------------------------------------------
    # actions
    # ------------------------------------------------------------------
    def _apply_action(self, action) -> None:
        """Apply per-flow overrides: ``{flow_index: {"cwnd_bytes"|"rate_bps": v}}``.

        A list aligned with ``world.senders`` (``None`` to skip a flow)
        works too.  Overrides go through ``cc.external_override`` and the
        sender is kicked so a grown window takes effect immediately rather
        than on the next ACK.
        """
        senders = self.world.senders
        if isinstance(action, dict):
            items = action.items()
        else:
            items = enumerate(action)
        for idx, override in items:
            if override is None:
                continue
            try:
                snd = senders[idx]
            except (IndexError, TypeError):
                raise ValueError(
                    f"action indexes flow {idx!r} but the world has "
                    f"{len(senders)} senders"
                ) from None
            unknown = set(override) - {"cwnd_bytes", "rate_bps"}
            if unknown:
                raise ValueError(
                    f"unknown override keys {sorted(unknown)} for flow {idx}; "
                    f"use cwnd_bytes and/or rate_bps"
                )
            snd.cc.external_override(
                cwnd_bytes=override.get("cwnd_bytes"),
                rate_bps=override.get("rate_bps"),
            )
            if not snd.completed and not snd.stopped and not snd.fluid_held:
                snd.try_send()

    def action_space_for(self, n_flows: Optional[int] = None) -> BoxSpace:
        """Per-flow cwnd bounds (bytes), from the live CCs' own clamps."""
        if self.world is None:
            self.reset()
        senders = self.world.senders if n_flows is None else self.world.senders[:n_flows]
        return BoxSpace(
            [s.cc.min_cwnd for s in senders],
            [s.cc.max_cwnd for s in senders],
        )

    # ------------------------------------------------------------------
    # observations
    # ------------------------------------------------------------------
    def _ports(self):
        world = self.world
        for sw in world.net.switches:
            for port in sw.ports:
                yield port
        for host in world.net.hosts:
            if host.port is not None:
                yield host.port

    def _observe(self) -> dict:
        world = self.world
        net = world.net
        ports = list(self._ports())
        n_vprio = 1 + max((f.vpriority for f in world.flows), default=0)
        vprio_inflight = [0] * n_vprio
        for snd in world.senders:
            vprio_inflight[snd.flow.vpriority] += snd.inflight_bytes
        return {
            "t_ns": world.sim.now,
            "port_backlog_bytes": [p.total_bytes for p in ports],
            "port_paused": [int(any(p.paused)) for p in ports],
            "flow_delay_ns": [s.last_rtt for s in world.senders],
            "flow_cwnd_bytes": [s.cc.cwnd for s in world.senders],
            "flow_inflight_bytes": [s.inflight_bytes for s in world.senders],
            "flow_acked_bytes": [s.acked_payload for s in world.senders],
            "flow_done": [int(f.done) for f in world.flows],
            "vprio_inflight_bytes": vprio_inflight,
            "drops_total": net.total_drops(),
            "pfc_pauses_total": net.total_pfc_pauses(),
        }


# ----------------------------------------------------------------------
# optional gymnasium adapter
# ----------------------------------------------------------------------
def make_gymnasium_env(builder, **kwargs):
    """Wrap a :class:`CCEnv` as a ``gymnasium.Env`` (optional extra).

    Raises a clear error when gymnasium is not installed — the stdlib
    :class:`CCEnv` protocol is identical, so nothing in this repo needs
    the adapter; it exists for interop with external RL training stacks.
    """
    try:
        import gymnasium
    except ImportError:
        raise RuntimeError(
            "gymnasium is not installed; repro.tune's native CCEnv speaks "
            "the same reset/step protocol — use it directly, or install "
            "gymnasium to get this adapter"
        ) from None

    inner = CCEnv(builder, **kwargs)

    class _GymCCEnv(gymnasium.Env):
        metadata = CCEnv.metadata

        def reset(self, *, seed=None, options=None):
            return inner.reset(seed=seed, options=options)

        def step(self, action):
            return inner.step(action)

        def close(self):
            inner.close()

    return _GymCCEnv()
