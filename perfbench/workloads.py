"""Workloads of the slicegrowth benchmark, shared by the runner and the
traced child.

A workload is a tuple of `slicegrowth verify` argument lists; one
iteration runs them in order.  The benchmark appends the seed and the
report path to each, so the program receives only generated inputs.
See README.md in this directory for why each workload was chosen.
"""

DEFAULT_SEED = 20240811

WORKLOADS = {
    # The ROADMAP's end-to-end run.  Series and slice-map evaluation
    # (growth-ball, growth-domain) take about three quarters of it.
    "verify-all": (("all",),),
    # Clifford product and inverse kernels for m = 1..8, including the
    # per-row product loop above m = 6.  The series layer is idle here.
    "algebra-m8": (("algebra", "--m", "8"),),
    # One point at a time: make_point validation, oracle bisection,
    # CliffordElement churn and single-row stem evaluation.
    "pointwise": (("gauge", "--samples", "300"),
                  ("representation", "--samples", "3000")),
}


def verify_argv(args, seed, report_path) -> list[str]:
    """Arguments of one `slicegrowth verify` invocation."""
    return ["verify", *args, "--seed", str(seed), "--out", str(report_path),
            "--quiet"]
