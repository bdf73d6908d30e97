"""One experiment module per figure/table of the paper (see DESIGN.md).

Every module registers its experiments -- ``FunctionExperiment`` data, see
:mod:`repro.experiments.registry` -- into the module-level ``REGISTRY``.  The
shared harness is one module per decision: :mod:`.modes` (mode -> CC, queues,
switch config), :mod:`.launch` (spec -> sender binder, admission, drive loop),
:mod:`.samplers`; ``common`` only re-exports them for ``benchmarks/perf``.
The supported way to run one is the stable facade::

    import repro.api as api

    result = api.run("fig10c", jobs=4)
"""
