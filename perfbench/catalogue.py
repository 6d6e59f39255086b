"""Every metric the benchmark reports, and what each layer metric moves.

``BENCHMARK.json`` lists the same names; ``test_perfbench.py`` checks that
the two agree.  A per-layer metric's ``moves`` names the end-to-end metric
it should move and the workload on which it moves it.
"""

#: (name, unit, better) -- printed with ``--trace 0``
END_TO_END = (
    ("pass_s", "s", "lower"),
    ("pass_s_tail", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("sim_s", "s", "lower"),
)

#: (name, unit, better, moves) -- printed with ``--trace 1``
PER_LAYER = (
    ("simtime.events", "count", "lower", "pass_s on collectives, multigrid"),
    ("simtime.zero_delay_events", "count", "lower",
     "pass_s on collectives, multigrid"),
    ("simtime.processes", "count", "lower", "pass_s on collectives, multigrid"),
    ("simtime.self_s", "s", "lower", "pass_s on collectives, multigrid"),
    ("net.messages", "count", "lower", "sim_s on collectives"),
    ("net.bytes", "B", "lower", "sim_s on collectives"),
    ("net.zero_byte_messages", "count", "lower", "sim_s on collectives"),
    ("net.link_util", "ratio", "higher", "sim_s on collectives"),
    ("datatypes.typed_buffers", "count", "lower",
     "pass_s on collectives, multigrid"),
    ("datatypes.ir_compiles", "count", "lower", "setup_s on scatter"),
    ("datatypes.ir_hit_ratio", "ratio", "higher", "setup_s on scatter"),
    ("datatypes.compile_s", "s", "lower", "setup_s on scatter"),
    ("datatypes.self_s", "s", "lower", "pass_s on scatter"),
    ("p2p.calls", "count", "lower", "pass_s on collectives"),
    ("p2p.self_s", "s", "lower", "pass_s on collectives"),
    ("p2p.host_us_per_msg", "us", "lower", "pass_s on collectives"),
    ("collectives.calls", "count", "lower", "pass_s, sim_s on collectives"),
    ("collectives.self_s", "s", "lower", "pass_s, sim_s on collectives"),
    ("petsc.scatter_setups", "count", "lower", "pass_s on scatter"),
    ("petsc.scatter_setup_s", "s", "lower", "pass_s on scatter"),
    ("petsc.scatters", "count", "lower", "pass_s on multigrid"),
    ("petsc.self_s", "s", "lower", "pass_s on multigrid"),
    ("prof.report_s", "s", "lower", "pass_s, peak_rss_mb on profiled"),
    ("prof.trace_write_s", "s", "lower", "pass_s, peak_rss_mb on profiled"),
    ("prof.spans", "count", "lower", "pass_s, peak_rss_mb on profiled"),
    ("prof.trace_mb", "MB", "lower", "pass_s, peak_rss_mb on profiled"),
    ("prof.self_s", "s", "lower", "pass_s, peak_rss_mb on profiled"),
    ("prof.overhead_x", "x", "lower", "pass_s, peak_rss_mb on profiled"),
    ("sim.comm_s", "s", "lower", "sim_s on every workload"),
    ("sim.pack_s", "s", "lower", "sim_s on every workload"),
    ("sim.search_s", "s", "lower", "sim_s on scatter (transpose points)"),
    ("sim.sync_s", "s", "lower", "sim_s on every workload"),
    ("apps.self_s", "s", "lower", "pass_s on every workload"),
    ("numpy.self_s", "s", "lower", "pass_s on every workload"),
    ("trace.overhead_x", "x", "lower", "none: the tracing's own cost"),
)

#: per-layer metrics that must repeat exactly for a fixed seed
EXACT = tuple(name for name, unit, _, _ in PER_LAYER if unit in ("count", "B")) + (
    "datatypes.ir_hit_ratio", "net.link_util", "prof.trace_mb",
    "sim.comm_s", "sim.pack_s", "sim.search_s", "sim.sync_s",
)

#: per-layer host times, reported in reference-host seconds like pass_s
#: (``calibrate.py``); the ``sim.*`` seconds are simulated and stay as they are
HOST_TIMES = tuple(name for name, unit, _, _ in PER_LAYER
                   if unit in ("s", "us") and not name.startswith("sim."))

#: caveats printed with the per-layer metrics they concern
NOTES = {
    "sim.sync_s": "no code path charges the 'sync' ledger category, so it "
                  "reads 0 on every workload",
    "numpy.self_s": "covers the numpy functions in layers.NUMPY_FUNCTIONS; "
                    "ndarray methods, operators and ufuncs stay in the "
                    "calling layer",
}
