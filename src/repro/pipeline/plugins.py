"""Optimization plug-in interface.

Each microarchitectural optimization the paper studies is implemented as
a plug-in that hooks pipeline events.  The baseline core calls every hook
at a well-defined point in the cycle; a plug-in overrides only what it
needs:

===============================  =============================================
Hook                             Used by
===============================  =============================================
``on_dispatch``                  value prediction (predict at rename)
``execute_latency``              computation simplification, early-
                                 terminating multiplication
``lookup_reuse``                 computation reuse (memoization hit)
``on_result``                    computation reuse (table update), value
                                 prediction (verify), register-file
                                 compression (duplicate detection)
``on_load_response``             data memory-dependent prefetching (observe)
``on_store_address_resolved``    silent stores (request an SS-Load)
``pack_pair``                    pipeline compression (operand packing)
``provide_phys_reg`` /           register-file compression (extra rename
``reclaim_phys_reg``             headroom from value duplication)
``end_of_cycle``                 silent stores (port stealing), DMP
                                 (prefetch state machine)
===============================  =============================================

A core dispatches each hook only to the plug-ins whose *class* overrides
it (the base hooks are no-ops returning the neutral value, so skipping
them changes nothing).  Overrides are detected per class when the core
is built: a hook assigned on an *instance* afterwards is never called.

Fast-forward contract
---------------------

The fast-path core (:mod:`repro.pipeline.fastpath`) may skip over spans
of cycles in which provably nothing can change.  Because plug-in hooks
fire *inside* the cycle loop, every plug-in must declare whether that
is safe around it via ``ff_policy``:

``FF_PURE``
    Every hook is a pure function of the pipeline events that invoke it
    (dispatch, issue, writeback, commit, ...).  No hook does anything on
    a cycle with no pipeline activity, so skipping quiet cycles is
    exact.  This is true for most table-driven optimizations.
``FF_WAKEUP``
    The plug-in runs autonomous per-cycle work (``end_of_cycle`` state
    machines), but can bound it: :meth:`ff_next_cycle` returns the next
    cycle at which it may act, or ``None`` when it is idle.  Quiet
    cycles before that bound skip exactly.
``FF_EVERY_CYCLE``
    The plug-in makes no promise — the **default**, so an out-of-tree
    plug-in that never heard of fast-forward silently disables it
    (every cycle is ticked; results stay exact, just slower).  This is
    the "disabled" arm of the fast-path's disabled-or-exact guarantee.
"""

from operator import itemgetter

#: ``ff_policy`` values (see the module docstring).
FF_PURE = "pure"
FF_WAKEUP = "wakeup"
FF_EVERY_CYCLE = "every-cycle"

#: The per-event hooks a core dispatches (see the module docstring).
HOOKS = (
    "on_dispatch", "provide_phys_reg", "reclaim_phys_reg",
    "execute_latency", "lookup_reuse", "pack_pair", "on_result",
    "on_commit", "on_load_response", "on_store_address_resolved",
    "on_store_performed", "end_of_cycle",
)

#: Plug-in class tuple -> ``(position, getter, single)`` for every hook
#: some plug-in class overrides; ``getter`` picks those plug-ins out of
#: the core's plug-in list.  Bounded by the distinct plug-in mixes.
_HOOK_LAYOUTS = {}

#: Every hook's list when no plug-in overrides it (shared, immutable).
_NO_HOOKS = ((),) * len(HOOKS)


def _hook_layout(classes):
    layout = []
    for position, hook in enumerate(HOOKS):
        base = getattr(OptimizationPlugin, hook)
        indices = [index for index, cls in enumerate(classes)
                   if getattr(cls, hook) is not base]
        if indices:
            layout.append((position, itemgetter(*indices),
                           len(indices) == 1))
    return tuple(layout)


def hook_lists(plugins):
    """Per hook in :data:`HOOKS`, the plug-ins (in order) overriding it.

    The override analysis is cached per tuple of plug-in classes, so a
    core pays one dict probe plus one tuple per *overridden* hook; every
    hook nobody overrides shares one empty tuple.
    """
    classes = tuple(map(type, plugins))
    layout = _HOOK_LAYOUTS.get(classes)
    if layout is None:
        layout = _HOOK_LAYOUTS[classes] = _hook_layout(classes)
    lists = list(_NO_HOOKS)
    for position, getter, single in layout:
        lists[position] = (getter(plugins),) if single else getter(plugins)
    return lists


class OptimizationPlugin:
    """Base class: every hook is a no-op.  Subclass per optimization."""

    name = "base"

    #: Fast-forward declaration; see the module docstring.  The default
    #: is the conservative one: unknown plug-ins disable fast-forward.
    ff_policy = FF_EVERY_CYCLE

    def __init__(self):
        self.cpu = None

    def ff_next_cycle(self):
        """Earliest future cycle this plug-in may act on (or ``None``).

        Consulted by the fast-path core only when ``ff_policy`` is
        :data:`FF_WAKEUP`.  Returning ``None`` means "idle until some
        pipeline event re-arms me"; returning a cycle bounds the skip.
        """
        return None

    def attach(self, cpu):
        """Called once when the plug-in is registered with a core."""
        self.cpu = cpu

    @property
    def metrics(self):
        """The attached core's stats record (disabled when detached)."""
        from repro.stats import NULL_STATS
        cpu = self.cpu
        return cpu.metrics if cpu is not None else NULL_STATS

    @property
    def trace(self):
        """The attached core's trace buffer (disabled when detached).

        Plug-ins emit ``opt``-category events tagged with their MLD
        outcome in ``info``, so a trace attributes each timing
        perturbation to the optimization firing that caused it.
        """
        from repro.trace import NULL_TRACE
        cpu = self.cpu
        return cpu.trace if cpu is not None else NULL_TRACE

    def reset(self):
        """Clear persistent microarchitectural state (Uarch inputs)."""

    # --- dispatch/rename stage ------------------------------------------------
    def on_dispatch(self, dyn):
        """A dynamic instruction entered the window."""

    def provide_phys_reg(self):
        """Offer a physical register when the free list is empty.

        Returns a physical-register index from a plug-in managed pool, or
        ``None``.  Register-file compression uses this to model the extra
        rename headroom created by value duplication.
        """
        return None

    def reclaim_phys_reg(self, preg):
        """Offered register is being freed; return True if reclaimed."""
        return False

    # --- issue/execute stage --------------------------------------------------
    def execute_latency(self, dyn, default_latency):
        """Chance to shorten (or stretch) an instruction's latency."""
        return default_latency

    def lookup_reuse(self, dyn):
        """Return a memoized result for ``dyn`` or ``None``."""
        return None

    def pack_pair(self, first, second):
        """May ``first`` and ``second`` share one ALU slot this cycle?"""
        return False

    # --- writeback -----------------------------------------------------------
    def on_result(self, dyn, value):
        """An instruction produced its architectural result."""

    def on_commit(self, dyn):
        """An instruction retired (in order)."""

    def on_load_response(self, dyn, addr, value):
        """A demand load returned ``value`` from ``addr``."""

    # --- store pipeline ---------------------------------------------------------
    def on_store_address_resolved(self, entry):
        """A store-queue entry's address became known."""

    def on_store_performed(self, entry):
        """A store-queue entry wrote memory (or dequeued silently)."""

    # --- cycle boundary -----------------------------------------------------------
    def end_of_cycle(self, free_load_ports):
        """Called after issue; returns load ports consumed (int)."""
        return 0
