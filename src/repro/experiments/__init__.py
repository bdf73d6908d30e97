"""One experiment module per figure/table of the paper (see DESIGN.md).

Every module registers its experiments behind the uniform protocol in
:mod:`repro.experiments.common` -- ``Point`` / ``Experiment`` /
``FunctionExperiment`` -- into the module-level ``REGISTRY``.  The supported
way to run one is the stable facade::

    import repro.api as api

    result = api.run("fig10c", jobs=4)
"""
