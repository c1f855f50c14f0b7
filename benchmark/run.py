"""Benchmark of the loxpairs decision procedure.

    python3 benchmark/run.py --workload decide --seed 1 --seconds 20 --trace 0

Workloads: decide, decide-illcond, quadruples, cli-mix (see
workloads.py), or `all` to run the four in one process.  The load is a
closed loop: one caller, one op at a time, one thread, BLAS pinned to
one thread.  Inputs come from --seed through the benchmark's own numpy
code; every answer is checked by a numpy oracle (oracles.py).

Each run first builds a pool of distinct inputs sized from --seconds,
runs it once in full, then keeps cycling through it until --seconds
have passed.  Correctness counts, and the result line's `attempted` and
`failed`, are taken over the one full pass, so they repeat exactly for
a seed; every later pass must give each input the same outcome.  Times
are taken over every op.

--trace 0 prints the end-to-end metrics; --trace 1 runs the pool once
untraced and once traced and prints the per-layer metrics (tracer.py).
The last line of stdout is one JSON object; a fuller record with the
environment block, the input digest and the failure breakdown is
written under .bench_build/loxbench/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

# pin BLAS before numpy is imported anywhere
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_build", "loxbench")

import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import types  # noqa: E402
import warnings  # noqa: E402

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

sys.path.insert(0, HERE)
import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads as W  # noqa: E402
from speed import ScaledClock, Tally, scale_now  # noqa: E402
from tracer import Tracer  # noqa: E402

NAMES = tuple(W.WORKLOADS)
# pool size per second of --seconds: about 70% of what one second of the
# seed commit completes, so the full pass always fits in the window
POOL_RATE = {"decide": 11, "decide-illcond": 13, "quadruples": 150,
             "cli-mix": 14}
MIN_OPS = 120           # p90 needs at least ten samples beyond it
SETUP_REPS = 3          # set-ups per run; setup_s takes their median
IMPORT_REPS = 5         # fresh-interpreter imports; setup_s adds their median
WARMUP_OPS = 12         # one op of every slice before timing
TIME_LIMIT_S = 150.0    # stop timing ops this long after process start, so
                        # a very slow commit still ends within 180 s

# per-layer metrics whose layer each workload must reach when traced;
# a zero there means the interception failed
HOME = {
    "spectral.eigen_frame": ("decide", "decide-illcond", "cli-mix"),
    "polys.faddeev_leverrier": ("decide", "decide-illcond", "cli-mix"),
    "polys.aberth_roots": ("decide", "decide-illcond", "cli-mix"),
    "polys.cluster_roots": ("decide", "decide-illcond", "cli-mix"),
    "spectral.classify_element": ("cli-mix",),
    "spectral.real_char_poly": ("cli-mix",),
    "spectral.element_conjugator": ("cli-mix",),
    "genericity.genericity_report": ("decide", "cli-mix"),
    "gram.normalize_lifts": ("decide", "cli-mix"),
    "gram.gram_matrix": ("decide", "cli-mix"),
    "invariants.pair_invariants": ("decide", "cli-mix"),
    "invariants.sp1_orbit_equal": ("decide",),
    "hermitian.inner": NAMES,
    "qmatrix.quaternionic_rank": ("decide", "quadruples", "cli-mix"),
    "quat.align_sp1": ("decide", "quadruples"),
    "classify.boundary_quadruple_congruence": ("quadruples",),
    "classify.conjugacy_test": ("decide", "decide-illcond", "cli-mix"),
    "classify.congruence_from_tuples": ("decide", "decide-illcond"),
    "classify.refine": ("decide", "decide-illcond"),
    "qmatrix.matmul": NAMES,
    "qmatrix.inverse": NAMES,
    "twistbend.PantsGroup": ("cli-mix",),
    "twistbend.twist_bend_element": ("cli-mix",),
    "twistbend.assemble_surface_representation": ("cli-mix",),
    "serialize.validate_against_schema": ("cli-mix",),
    "serialize.loads": ("cli-mix",),
    "serialize.dumps": ("cli-mix",),
    "cli.main": ("cli-mix",),
    "generate.generate_pair": ("cli-mix",),
}
STAGES = ("verified", "real-trace", "tuple", "projective-points")


def load_library():
    """Import loxpairs from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "loxpairs", "__init__.py")):
        sys.exit(f"benchmark: no loxpairs sources under {SRC}")
    sys.path.insert(0, SRC)
    import loxpairs
    if not os.path.abspath(loxpairs.__file__).startswith(SRC + os.sep):
        sys.exit(f"benchmark: loxpairs imported from {loxpairs.__file__}")
    from loxpairs import classify, cli, errors, hermitian, qmatrix
    return types.SimpleNamespace(classify=classify, cli=cli, errors=errors,
                                 hermitian=hermitian, qmatrix=qmatrix)


# -- one op ---------------------------------------------------------------

def run_op(lib, op):
    """(outcome, seconds, detail).  Outcomes: ok; missed (a false
    rejection); wrong (a false claim); typed (a LoxpairsError, or a
    non-zero CLI exit); untyped (any other exception, or a RuntimeWarning
    or NaN that got out)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            answer, exc = op.call(), None
        except Exception as e:      # every error is an outcome to count
            answer, exc = None, e
        dt = time.perf_counter() - t0
    if exc is not None:
        typed = isinstance(exc, (lib.errors.LoxpairsError, W.CliExit))
        return ("typed" if typed else "untyped"), dt, \
            f"{type(exc).__name__}: {str(exc)[:80]}"
    leaked = [w for w in caught if issubclass(w.category, RuntimeWarning)]
    if leaked:
        return "untyped", dt, f"RuntimeWarning: {str(leaked[0].message)[:80]}"
    why = op.check(answer)
    if why is None:
        return "ok", dt, ""
    if why.startswith(oracles.NAN):
        return "untyped", dt, why
    return ("missed" if why.startswith(oracles.MISSED) else "wrong"), dt, why


def outcome_counts(outcomes) -> dict:
    """The correctness counts of one full pass over the pool."""
    n = len(outcomes)
    wrong = outcomes.count("wrong")
    return {"fail_ratio": (n - outcomes.count("ok")) / n,
            "wrong_verdicts": outcomes.count("missed") + wrong,
            "false_claims": wrong,
            "typed_errors": outcomes.count("typed"),
            "untyped_errors": outcomes.count("untyped")}


def is_correct(outcomes) -> bool:
    """No false claim, no untyped error and no leak.  False rejections
    and typed errors are failures that every metric counts, but the seed
    commit has them as known defects or by design (NOTES.md)."""
    return "wrong" not in outcomes and "untyped" not in outcomes


def breakdown(failures) -> dict:
    out: dict[str, int] = {}
    for key in failures:
        if key:
            out[key] = out.get(key, 0) + 1
    return out


def run_ops(lib, ops, tally, seconds=None, tracer=None):
    """Run every op once in order; with `seconds`, keep cycling through
    them until that much wall time has passed."""
    t0 = time.perf_counter()
    i = 0
    while i < len(ops) or (seconds is not None
                           and time.perf_counter() - t0 < seconds):
        if time.perf_counter() - T_START > TIME_LIMIT_S:
            break
        if tracer is not None:
            tracer.current_op = i
        op = ops[i % len(ops)]
        tally.add(op.label, *run_op(lib, op))
        i += 1
    tally.rescale()


# -- set-up ---------------------------------------------------------------

def pool_size(name, seconds) -> int:
    return max(MIN_OPS, int(POOL_RATE[name] * seconds))


IMPORT_CHILD = (
    "import sys, time; t = time.perf_counter(); import numpy; "
    "sys.path.insert(0, sys.argv[1]); "
    "import loxpairs.classify, loxpairs.cli, loxpairs.errors, "
    "loxpairs.hermitian, loxpairs.qmatrix; "
    "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median scaled time to import numpy and loxpairs, each time in a
    fresh interpreter, scaled by the readings before and after it: the
    one import of this process is too noisy to count alone."""
    times, before = [], scale_now()
    for _ in range(IMPORT_REPS):
        child = subprocess.run([sys.executable, "-c", IMPORT_CHILD, SRC],
                               capture_output=True, text=True, timeout=60)
        if child.returncode != 0:
            sys.exit(f"benchmark: importing loxpairs failed: "
                     f"{child.stderr.strip()[-200:]}")
        after = scale_now()
        times.append(float(child.stdout.split()[-1]) * (before + after) / 2)
        before = after
    return statistics.median(times)


def build(lib, name, seed, seconds, clock):
    """The pool of ops for a seed, and the digest of its inputs."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    digest = inputs.Digest()
    built = W.Built()
    count = pool_size(name, seconds)
    extra = (os.path.join(WORK, name),) if name == "cli-mix" else ()
    for op in W.WORKLOADS[name](lib, rng, count, digest, built, *extra):
        built.ops.append(op)
        if len(built.ops) == count:
            break
        clock.tick()
    return built, digest.hexdigest()


def set_up(lib, name, seed, seconds):
    """Build the inputs and warm up SETUP_REPS times; the builds must
    agree.  Returns (built, digest, median scaled seconds per set-up, all
    of them)."""
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        clock = ScaledClock()
        built, digest = build(lib, name, seed, seconds, clock)
        for op in built.ops[:WARMUP_OPS]:
            run_op(lib, op)
            clock.tick()
        clock.tick(force=True)
        times.append(clock.total)
        digests.add(digest)
    if len(digests) != 1:
        sys.exit(f"benchmark: inputs of {name} differ between builds")
    return built, digest, statistics.median(times), times


# -- measurement ----------------------------------------------------------

def quantile(x, p) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics.  The op times are a mixture of slices with gaps
    between them, and a single order statistic jumps across a gap when
    the seed changes the slices' sizes slightly."""
    x = np.sort(np.asarray(x))
    n = x.size
    a, b = p * (n + 1), (1 - p) * (n + 1)
    w = np.diff(betainc(a, b, np.arange(n + 1) / n))
    return float(w @ x)


def end_to_end(tally, pool, setup_s):
    """Times over every op of the window; ratios over the first full
    pass, which covers each input of the pool once."""
    first = tally.outcomes[:pool]
    c = outcome_counts(first)
    n = len(first)
    t = np.asarray(tally.times)
    return {
        "ops_per_s": (tally.outcomes.count("ok") / float(t.sum()), "1/s"),
        "op_ms_p50": (quantile(t, 0.5) * 1e3, "ms"),
        "op_ms_p90": (quantile(t, 0.9) * 1e3, "ms"),
        "pass_ratio": (1.0 - c["fail_ratio"], "ratio"),
        "sound_ratio": (1.0 - c["wrong_verdicts"] / n, "ratio"),
        "typed_ratio": (1.0 - c["untyped_errors"] / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def traced(lib, name, built):
    """Untraced pass, then traced pass over the same ops."""
    plain, tally, tracer = Tally(), Tally(), Tracer()
    run_ops(lib, built.ops, plain)
    tracer.patch()
    try:
        run_ops(lib, built.ops, tally, tracer=tracer)
    finally:
        tracer.unpatch()
    if plain.outcomes != tally.outcomes:
        sys.exit(f"benchmark: tracing changed the outcomes of {name}")
    table = tracer.table(tally.scales())
    ops = len(tally.outcomes)
    metrics = {}
    for fn in HOME:
        row = table.get(fn, {"calls": 0, "errors": 0, "self_ns": 0})
        metrics[f"{fn}.calls"] = (row["calls"], "count")
        metrics[f"{fn}.self_ms"] = (row["self_ns"] / 1e6 / ops, "ms/op")
        metrics[f"{fn}.errors"] = (row["errors"], "count")
    for stage in STAGES:
        metrics[f"classify.stage.{stage}.count"] = (
            tracer.stages.get(stage, 0), "count")
    refines = table.get("classify.refine", {}).get("calls", 0)
    metrics["classify.refine.unneeded_ratio"] = (
        tracer.refine_unneeded / refines if refines else 0.0, "ratio")
    tried = table.get("generate.random_loxodromic", {}).get("calls", 0) / 2
    made = table.get("generate.generate_pair", {})
    accepted = made.get("calls", 0) - made.get("errors", 0)
    metrics["generate.generate_pair.accept_ratio"] = (
        accepted / tried if tried else 0.0, "ratio")
    metrics["trace.overhead_ratio"] = (sum(tally.times) / sum(plain.times),
                                       "ratio")
    for key, value in outcome_counts(tally.outcomes).items():
        metrics[f"ops.{key}"] = (value, "ratio" if key == "fail_ratio"
                                 else "count")
    metrics["inputs.rejected.count"] = (built.rejected, "count")
    os.makedirs(WORK, exist_ok=True)
    tracer.write(os.path.join(WORK, f"spans-{name}.npz"))
    return tally, metrics, table


def missing_layers(workload_names, tables):
    """Per-layer functions that recorded no call on a workload that must
    reach them."""
    return sorted(fn for fn, homes in HOME.items()
                  for w in workload_names if w in homes
                  and tables[w].get(fn, {}).get("calls", 0) == 0)


# -- environment and output -----------------------------------------------

def environment():
    import platform
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    src_lines = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "loxpairs")):
        for f in files:
            if f.endswith(".py"):
                with open(os.path.join(dirpath, f)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS},
            "git_commit": commit, "src_py_lines": src_lines}


def print_table(title, metrics):
    print(f"== {title}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<48} {value:>14.6g} {unit}")


def repeats_agree(outcomes, pool) -> bool:
    """Each later pass gives every input the outcome of the first pass."""
    return all(o == outcomes[i % pool] for i, o in enumerate(outcomes))


def result_line(correct, first, metrics):
    """`attempted` and `failed` count the one full pass over the pool, so
    they repeat exactly for a seed however many ops the window held."""
    return {"correct": bool(correct), "attempted": len(first),
            "failed": len(first) - first.count("ok"),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    lib = load_library()
    import_s = import_seconds()
    names = NAMES if args.workload == "all" else (args.workload,)
    env = environment()
    results, tables, record = {}, {}, {"env": env, "workloads": {}}
    for name in names:
        built, digest, setup_s, reps = set_up(lib, name, args.seed,
                                              args.seconds)
        pool = len(built.ops)
        rec = {"input_sha256": digest, "ops_in_pool": pool,
               "inputs_rejected": built.rejected,
               "setup_parts_s": {"import": import_s, "builds": reps}}
        if args.trace:
            tally, metrics, tables[name] = traced(lib, name, built)
            title = f"{name} per-layer (traced)"
        else:
            tally = Tally()
            run_ops(lib, built.ops, tally, seconds=args.seconds)
            metrics = end_to_end(tally, pool, import_s + setup_s)
            title = f"{name} end-to-end"
        first = tally.outcomes[:pool]
        correct = (is_correct(tally.outcomes)
                   and repeats_agree(tally.outcomes, pool))
        failures = breakdown(tally.failures[:pool])
        raw = np.asarray(tally.raw)
        rec.update(correct=correct, counts=outcome_counts(first),
                   first_pass_complete=len(first) == pool,
                   failures=failures,
                   raw_wall={"ops": len(raw), "sum_s": float(raw.sum()),
                             "p50_ms": float(np.median(raw)) * 1e3,
                             "mean_scale": float(np.mean(tally.scales()))},
                   metrics={k: v for k, (v, _) in metrics.items()})
        record["workloads"][name] = rec
        results[name] = result_line(correct, first, metrics)
        print_table(title, metrics)
        print(f"  input_sha256 {digest}  pool {pool} ops, "
              f"{built.rejected} inputs rejected by preconditions")
        print("  counts over the pool:", json.dumps(rec["counts"]))
        print("  raw wall time:", json.dumps(rec["raw_wall"]))
        for key, v in sorted(failures.items()):
            print(f"  failure x{v}: {key}")
    if args.trace:
        missing = missing_layers(names, tables)
        if missing:
            sys.exit(f"benchmark: traced run reached none of {missing}")
    print("env:", json.dumps(env))
    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()}}))


if __name__ == "__main__":
    main()
