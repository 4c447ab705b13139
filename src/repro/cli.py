"""Command-line interface.

A small operational front end to the library, usable as ``python -m
repro.cli <command>``:

``schemes``
    List the available protection schemes and FFT backends.
``transform``
    Run a protected transform on a synthetic signal (or a file of samples)
    and print the fault-tolerance report.  ``--batch N`` runs a batch of
    ``N`` signals through the vectorized ``execute_many`` path;
    ``--backend`` selects the sub-FFT kernel; ``--real`` feeds a real
    float64 signal through the compiled half-complex (rfft) path.
``inject``
    Run a protected transform with a soft error injected at a chosen site
    and show detection/correction behaviour and the residual output error.
``predict``
    Print the Section 7 overhead predictions for a problem size (and,
    optionally, the parallel per-rank figures).
``profile``
    Time one protected execution phase by phase (checksum encode, each
    lowered transform stage, tap verification) via ``FTPlan.profile``.
``stats``
    Print the process-wide telemetry registry (every ``*_info`` cache
    surface plus the event counters) as a table, ``--json``, or
    ``--prometheus`` text exposition (byte-identical to the serve
    daemon's ``/metrics`` endpoint).
``serve``
    Run the always-on transform daemon: micro-batch concurrent requests
    into ``execute_many`` windows, keep plans and wisdom warm, expose
    ``/healthz`` / ``/stats`` / ``/metrics``, drain gracefully on
    SIGTERM.  See ``docs/serving.md``.
``submit``
    Send one signal (or ``--repeat`` copies) to a running daemon and
    print the per-row fault-tolerance summary.

The CLI only composes the public plan API (``repro.plan`` + ``FTConfig``);
everything it prints can also be obtained programmatically.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FTConfig, legacy_scheme_names
from repro.core.ftplan import FTPlan, plan
from repro.faults.injector import FaultInjector
from repro.faults.models import FaultKind, FaultSite, FaultSpec
from repro.fftlib.backends import available_backends, get_backend
from repro.perfmodel import parallel_scheme_ops, predict_sequential
from repro.utils.reporting import Table
from repro.utils.rng import RandomSource

__all__ = ["build_parser", "main"]


# ----------------------------------------------------------------------
# input handling
# ----------------------------------------------------------------------

def _load_signal(args: argparse.Namespace) -> np.ndarray:
    """Build the input vector: from ``--input`` (one value per line) or synthetic.

    With ``--real`` the synthetic signals are real-valued (and an input file
    is read as float64 samples) to feed the packed rfft path.
    """

    real = _wants_real(args)
    if args.input:
        dtype = np.float64 if real else np.complex128
        values = np.loadtxt(args.input, dtype=dtype, ndmin=1)
        return np.asarray(values, dtype=dtype)
    source = RandomSource(seed=args.seed)
    if args.signal == "uniform":
        return source.uniform_real(args.size) if real else source.uniform_complex(args.size)
    if args.signal == "normal":
        return source.normal_real(args.size) if real else source.normal_complex(args.size)
    tones = [args.size // 8, args.size // 3]
    if real:
        return source.real_signal_with_tones(args.size, tones=tones, noise=0.05)
    return source.signal_with_tones(args.size, tones=tones, noise=0.05)


def _load_batch(args: argparse.Namespace, x: np.ndarray) -> np.ndarray:
    """A ``(batch, n)`` input for ``--batch N`` runs.

    Synthetic signals get a fresh row per batch entry (seeds offset from
    ``--seed``); a ``--input`` file is tiled, which still exercises the
    batched pipeline.
    """

    if args.input:
        return np.tile(x, (args.batch, 1))
    # All rows derive from one base seed so the batch is either fully
    # reproducible (--seed given) or fully fresh (base drawn from entropy),
    # never a mix of fixed and varying rows.
    base = args.seed
    if base is None:
        base = int(np.random.default_rng().integers(0, 2**31))
    rows = []
    for i in range(args.batch):
        row_args = argparse.Namespace(**vars(args))
        row_args.seed = base + i
        rows.append(_load_signal(row_args))
    return np.stack(rows)


def _scheme_name(name: str) -> str:
    """``--scheme`` type: any name :meth:`FTConfig.from_name` accepts."""

    try:
        FTConfig.from_name(name)
    except KeyError as exc:
        raise argparse.ArgumentTypeError(exc.args[0]) from None
    return name


def _warm_spec(spec: str) -> Tuple[int, str]:
    """``--warm`` type: ``N[:CONFIG]``, a positive size and a ``--scheme`` name."""

    size_text, _, scheme = spec.partition(":")
    if not size_text.isdecimal() or int(size_text) <= 0:
        raise argparse.ArgumentTypeError(f"{spec!r} does not start with a positive size")
    return int(size_text), _scheme_name(scheme or "opt-online+mem")


def _wants_real(args: argparse.Namespace) -> bool:
    """``--real``, or a ``+real`` flag carried by the ``--scheme`` name."""

    return bool(getattr(args, "real", False)) or FTConfig.from_name(args.scheme).real


def _make_plan(args: argparse.Namespace, n: int) -> FTPlan:
    """The (cached) FTPlan from ``--scheme``/``--backend``/``--real``/``--inplace``."""

    config = FTConfig.from_name(
        args.scheme,
        backend=args.backend,
        real=getattr(args, "real", False),
        inplace=getattr(args, "inplace", False),
    )
    return plan(n, config)


def _execute_signal(ft_plan: FTPlan, args: argparse.Namespace, x: np.ndarray, injector=None):
    """Run one signal through the plan, honouring ``--inplace``.

    With ``--inplace`` the transform goes through the overwrite path: the
    working buffer is handed to ``execute(out=...)`` and destroyed (complex)
    or consumed into a preallocated packed-spectrum buffer (real).
    """

    if getattr(args, "inplace", False):
        if _wants_real(args):
            out = np.empty(x.size // 2 + 1, dtype=np.complex128)
            return ft_plan.execute(np.array(x, dtype=np.float64), injector, out=out)
        buf = np.array(x, dtype=np.complex128)
        return ft_plan.execute(buf, injector, out=buf)
    return ft_plan.execute(x, injector)


def _execute_batch(ft_plan: FTPlan, args: argparse.Namespace, X: np.ndarray, injector=None):
    """Run a batch through the plan, honouring ``--inplace`` (complex only)."""

    if getattr(args, "inplace", False) and not _wants_real(args):
        buf = np.array(X, dtype=np.complex128)
        return ft_plan.execute_many(buf, injector=injector, out=buf)
    return ft_plan.execute_many(X, injector=injector)


def _reference_spectrum(args: argparse.Namespace, x: np.ndarray) -> np.ndarray:
    """Reference spectrum for the report's relative-error line.

    Uses the registered ``numpy`` backend (pocketfft) through the ordinary
    backend registry rather than touching ``numpy.fft`` directly - the
    registry is the repo's only sanctioned FFT boundary (reprolint's
    ``fft-boundary`` rule), and the report should name the kernel the same
    way every other path does.
    """

    reference = get_backend("numpy")
    if _wants_real(args):
        return reference.rfft(x, axis=-1)
    return reference.fft(np.asarray(x, dtype=np.complex128), axis=-1)


def _add_signal_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", "-n", type=int, default=4096, help="transform length (default 4096)")
    parser.add_argument(
        "--signal", choices=["uniform", "normal", "tones"], default="uniform",
        help="synthetic input kind (ignored when --input is given)",
    )
    parser.add_argument("--input", help="file with one (complex) sample per line")
    parser.add_argument("--seed", type=int, default=None, help="seed for the synthetic input")
    parser.add_argument(
        "--scheme", default="opt-online+mem", type=_scheme_name,
        help="protection scheme in flag grammar, e.g. opt-online+mem+numpy "
             "(default: opt-online+mem)",
    )
    parser.add_argument(
        "--backend", default=None, choices=list(available_backends()),
        help="sub-FFT kernel (default: the process default, fftlib)",
    )
    parser.add_argument(
        "--batch", type=int, default=1, metavar="N",
        help="run N signals through the vectorized batched path (default 1)",
    )
    parser.add_argument(
        "--real", action="store_true",
        help="real-input transform: real float64 signal in, packed n//2+1 "
             "spectrum (numpy.fft.rfft layout) out, via the compiled "
             "half-complex path",
    )
    parser.add_argument(
        "--inplace", action="store_true",
        help="in-place execution: lower the Stockham autosort program "
             "(caller's buffer + one half-size scratch instead of ping-pong "
             "buffers) and run the transform through the overwrite path "
             "with checksum-carried surrogate recovery",
    )


# ----------------------------------------------------------------------
# sub-commands
# ----------------------------------------------------------------------

def _cmd_schemes(args: argparse.Namespace) -> int:
    table = Table("available protection schemes", ["name", "description"])
    descriptions = {
        "fftw": "unprotected baseline (no checksums)",
        "offline": "offline ABFT, naive encoding, computational FT only",
        "opt-offline": "offline ABFT, optimized encoding, computational FT only",
        "offline+mem": "offline ABFT with memory fault tolerance (naive)",
        "opt-offline+mem": "offline ABFT with memory fault tolerance (optimized)",
        "online": "online two-layer ABFT (Algorithm 2), computational FT only",
        "opt-online": "optimized online ABFT, computational FT only",
        "online+mem": "online ABFT with the Fig. 2 memory protection hierarchy",
        "opt-online+mem": "the paper's FT-FFTW scheme (Fig. 3, all optimizations)",
    }
    for name in legacy_scheme_names():
        table.add_row(name, descriptions.get(name, ""))
    print(table.render())
    print()
    backends = Table("available FFT backends (--backend)", ["name", "description"])
    for name in available_backends():
        backends.add_row(name, get_backend(name).description)
    print(backends.render())
    return 0


def _print_report(result, reference: Optional[np.ndarray]) -> None:
    report = result.report
    print(f"scheme               : {result.scheme}")
    print(f"errors detected      : {report.detected}")
    print(f"sub-FFT recomputations: {report.recompute_count}")
    print(f"memory repairs       : {report.memory_correction_count}")
    print(f"DMR corrections      : {report.dmr_correction_count}")
    print(f"uncorrectable        : {len(report.uncorrectable)}")
    if reference is not None:
        err = float(
            np.max(np.abs(result.output - reference)) / max(np.max(np.abs(reference)), 1e-300)
        )
        print(f"relative output error: {err:.3e}")


def _print_batch_report(batch, reference: np.ndarray) -> float:
    """Print the batched report; returns the (guarded) relative output error."""

    report = batch.report
    print(f"scheme               : {report.scheme}")
    print(f"batch rows           : {reference.shape[0]}")
    print(f"errors detected      : {report.detected}")
    print(f"rows re-protected    : {len(batch.fallback_rows)}")
    print(f"memory repairs       : {report.memory_correction_count}")
    print(f"uncorrectable        : {len(report.uncorrectable)}")
    err = float(np.max(np.abs(batch.output - reference)) / max(np.max(np.abs(reference)), 1e-300))
    print(f"relative output error: {err:.3e}")
    return err


def _cmd_transform(args: argparse.Namespace) -> int:
    x = _load_signal(args)
    ft_plan = _make_plan(args, x.size)
    if args.batch > 1:
        X = _load_batch(args, x)
        batch = _execute_batch(ft_plan, args, X)
        _print_batch_report(batch, _reference_spectrum(args, X))
        if args.output:
            # Same (re, im) two-column layout as the single-signal path,
            # with the rows' spectra concatenated in batch order.
            flat = batch.output.reshape(-1)
            np.savetxt(args.output, np.column_stack([flat.real, flat.imag]))
            print(f"spectra written to    {args.output} ({X.shape[0]} spectra concatenated)")
        return 0 if not batch.uncorrectable else 1
    result = _execute_signal(ft_plan, args, x)
    reference = _reference_spectrum(args, x)
    _print_report(result, reference)
    if args.output:
        np.savetxt(args.output, np.column_stack([result.output.real, result.output.imag]))
        print(f"spectrum written to   {args.output}")
    return 0 if not result.report.has_uncorrectable else 1


def _cmd_inject(args: argparse.Namespace) -> int:
    x = _load_signal(args)
    site = FaultSite(args.site)
    kind = FaultKind(args.kind)
    spec = FaultSpec(
        site=site,
        index=args.index,
        element=args.element,
        kind=kind,
        magnitude=args.magnitude,
        bit=args.bit,
    )
    injector = FaultInjector(specs=[spec])
    ft_plan = _make_plan(args, x.size)
    if args.batch > 1:
        if site not in (FaultSite.INPUT, FaultSite.OUTPUT):
            print(
                f"note: batched execution only visits input/output fault sites; "
                f"site {site.value!r} will not fire in the vectorized path"
            )
        X = _load_batch(args, x)
        reference = _reference_spectrum(args, X)
        batch = _execute_batch(ft_plan, args, X, injector)
        print(f"faults injected      : {injector.fired_count}")
        err = _print_batch_report(batch, reference)
        return 0 if err < args.tolerance else 1
    reference = _reference_spectrum(args, x)
    result = _execute_signal(ft_plan, args, x, injector)
    print(f"faults injected      : {injector.fired_count}")
    if injector.events:
        event = injector.events[0]
        print(f"fault site/element   : {event.site.value} / {event.element}")
    _print_report(result, reference)
    err = float(np.max(np.abs(result.output - reference)) / np.max(np.abs(reference)))
    return 0 if err < args.tolerance else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    """Per-phase timing of one protected execution (``FTPlan.profile``)."""

    x = _load_signal(args)
    ft_plan = _make_plan(args, x.size)
    ft_plan.execute(x)  # warm-up: programs, twiddles, work buffers
    result = ft_plan.profile(x)
    print(result.format())
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    """Dump the telemetry registry (counters, gauges, cache surfaces)."""

    from repro import telemetry

    if getattr(args, "json", False):
        print(telemetry.registry().to_json())
        return 0
    if getattr(args, "prometheus", False):
        # The one shared rendering path with the serve daemon's /metrics
        # endpoint: both emit telemetry.prometheus_exposition() verbatim,
        # so a scrape and a CLI dump of the same process state are
        # byte-identical (tests/server/test_metrics_parity.py pins this).
        sys.stdout.buffer.write(telemetry.prometheus_exposition())
        sys.stdout.buffer.flush()
        return 0
    snapshot = telemetry.snapshot()
    counters = snapshot["counters"]
    table = Table("telemetry counters", ["counter", "value"])
    if counters:
        for name, value in sorted(counters.items()):
            table.add_row(name, str(value))
    else:
        table.add_row("(none recorded)", "0")
    print(table.render())
    gauges = snapshot["gauges"]
    if gauges:
        print()
        gauge_table = Table("telemetry gauges", ["gauge", "value"])
        for name, value in sorted(gauges.items()):
            gauge_table.add_row(name, str(value))
        print(gauge_table.render())
    for surface, fields in sorted(snapshot["caches"].items()):
        print()
        surface_table = Table(f"{surface} info", ["field", "value"])
        for field_name, value in fields.items():
            surface_table.add_row(field_name, str(value))
        print(surface_table.render())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the always-on transform daemon (see docs/serving.md)."""

    import asyncio
    import json

    from repro.server import TransformServer

    if args.wisdom:
        from repro.fftlib.planner import get_default_planner

        # A bad snapshot is a usage error, reported before any port is bound.
        try:
            with open(args.wisdom, "r", encoding="utf-8") as handle:
                get_default_planner().import_wisdom(json.load(handle))
        except (OSError, ValueError) as exc:
            args.usage_error(f"argument --wisdom: {args.wisdom}: {exc}")
        print(f"wisdom imported from {args.wisdom}")
    for size, scheme in args.warm or ():
        warm_plan = plan(size, scheme)
        # One throwaway execution compiles the stage programs, caches the
        # twiddles, and loads (or first builds) the native kernels up front.
        dtype = np.float64 if warm_plan.config.real else np.complex128
        warm_plan.execute_many(np.zeros((1, warm_plan.n), dtype))
        print(f"warmed n={warm_plan.n} config={warm_plan.config.to_name()}")

    port = args.port
    if port is None and not args.unix:
        port = 8791  # repro.server.DEFAULT_PORT; keep the CLI default visible here
    server = TransformServer(
        host=args.host,
        port=port,
        unix_path=args.unix,
        window=args.window_ms / 1000.0,
        max_batch=args.max_batch,
        max_payload=args.max_payload_mb * 1024 * 1024,
    )

    async def _run() -> None:
        await server.start()
        for address in server.addresses:
            print(f"listening on {address}")
        print(
            f"micro-batch window {server.window * 1e3:.1f} ms, "
            f"max batch {server.max_batch}"
        )
        sys.stdout.flush()
        await server.serve_forever(install_signal_handlers=True)

    asyncio.run(_run())
    print("drained; bye")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    """Send one or more signals to a running daemon and print the outcome."""

    from repro.client import Client
    from repro.server.protocol import canonical_config

    scheme = args.scheme
    if args.real:
        scheme = FTConfig.from_name(scheme).replace(real=True).to_name()
    config, real = canonical_config(scheme)
    signal_args = argparse.Namespace(**vars(args))
    signal_args.real = real
    inject = None
    if args.site is not None:
        inject = {"site": args.site, "kind": args.kind, "magnitude": args.magnitude}
    with Client(args.address) as client:
        failures = 0
        for index in range(max(1, args.repeat)):
            if args.seed is not None:
                signal_args.seed = args.seed + index
            x = _load_signal(signal_args)
            reply = client.transform(x, config, inject=inject)
            print(
                f"[{index}] scheme={reply.scheme} batch={reply.batch_index + 1}/"
                f"{reply.batch_size} detected={reply.detected} "
                f"corrected={reply.corrected} uncorrectable={reply.uncorrectable}"
            )
            failures += int(reply.uncorrectable)
            if args.output and index == 0:
                np.savetxt(args.output, np.column_stack([reply.output.real, reply.output.imag]))
                print(f"spectrum written to {args.output}")
    return 0 if failures == 0 else 1


def _cmd_predict(args: argparse.Namespace) -> int:
    table = Table(
        f"Section 7 predicted fault-free overhead for N=2^{int(np.log2(args.size))}",
        ["scheme", "overhead %", "overhead % with one error"],
        digits=1,
    )
    for prediction in predict_sequential(args.size):
        table.add_row(
            prediction.scheme, prediction.overhead_percent, prediction.overhead_percent_with_error
        )
    print(table.render())
    if args.ranks:
        local = args.size // args.ranks
        before = parallel_scheme_ops(local)
        after = parallel_scheme_ops(local, overlap=True)
        print()
        print(f"parallel per-rank overhead (local n = N/p = {local}):")
        print(f"  FT-FFTW      : {before.fault_free / local:.0f} n operations")
        print(f"  opt-FT-FFTW  : {after.fault_free / local:.0f} n operations (after overlap)")
    return 0


# ----------------------------------------------------------------------
# parser / entry point
# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerant FFT (reproduction of Liang et al., SC'17)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("schemes", help="list available protection schemes").set_defaults(func=_cmd_schemes)

    transform = sub.add_parser("transform", help="run a protected transform")
    _add_signal_options(transform)
    transform.add_argument("--output", "-o", help="write the spectrum (re, im columns) to this file")
    transform.set_defaults(func=_cmd_transform)

    inject = sub.add_parser("inject", help="run a protected transform with an injected soft error")
    _add_signal_options(inject)
    inject.add_argument(
        "--site", default=FaultSite.STAGE1_COMPUTE.value,
        choices=[site.value for site in FaultSite], help="where the fault strikes",
    )
    inject.add_argument(
        "--kind", default=FaultKind.ADD_CONSTANT.value,
        choices=[kind.value for kind in FaultKind], help="corruption model",
    )
    inject.add_argument("--magnitude", type=float, default=10.0, help="constant used by add/set faults")
    inject.add_argument("--bit", type=int, default=None, help="bit position for bit-flip faults")
    inject.add_argument("--index", type=int, default=None, help="sub-FFT index to target")
    inject.add_argument("--element", type=int, default=None, help="element offset to corrupt")
    inject.add_argument(
        "--tolerance", type=float, default=1e-8,
        help="relative output error above which the command exits non-zero",
    )
    inject.set_defaults(func=_cmd_inject)

    profile = sub.add_parser(
        "profile", help="time one protected execution phase by phase"
    )
    _add_signal_options(profile)
    profile.set_defaults(func=_cmd_profile)

    stats = sub.add_parser(
        "stats", help="print the process-wide telemetry registry"
    )
    stats.add_argument(
        "--json", action="store_true", help="emit the registry snapshot as JSON"
    )
    stats.add_argument(
        "--prometheus", action="store_true",
        help="emit Prometheus text exposition format",
    )
    stats.set_defaults(func=_cmd_stats)

    serve = sub.add_parser(
        "serve", help="run the always-on micro-batching transform daemon"
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host (default 127.0.0.1)")
    serve.add_argument(
        "--port", type=int, default=None, metavar="P",
        help="TCP port (default 8791; 0 picks an ephemeral port; omitted "
             "entirely when --unix is the only listener requested)",
    )
    serve.add_argument(
        "--unix", default=None, metavar="PATH",
        help="also (or only, without --port) listen on this unix socket",
    )
    serve.add_argument(
        "--window-ms", type=float, default=0.0, metavar="MS",
        help="micro-batch window: how long the first request of a "
             "(n, config) group waits for peers.  The default 0 waits for "
             "nothing - requests read in the same event-loop turn share a "
             "batch that runs on the next turn, with no timer; a positive "
             "window holds the batch open on a timer (useful for sparse "
             "open-loop traffic, but it stalls closed-loop clients)",
    )
    serve.add_argument(
        "--max-batch", type=int, default=32, metavar="B",
        help="flush a group early at B rows; 1 disables batching and "
             "serves one execute() per request (default 32)",
    )
    serve.add_argument(
        "--max-payload-mb", type=int, default=64, metavar="MB",
        help="reject request payloads larger than this (default 64 MiB)",
    )
    serve.add_argument(
        "--wisdom", default=None, metavar="FILE",
        help="import an export_wisdom() JSON snapshot before serving: "
             "every plan key it names is lowered up front",
    )
    serve.add_argument(
        "--warm", action="append", type=_warm_spec, metavar="N[:CONFIG]",
        help="pre-build the plan for this size (and config; default "
             "opt-online+mem) before accepting traffic; repeatable",
    )
    serve.set_defaults(func=_cmd_serve, usage_error=serve.error)

    submit = sub.add_parser(
        "submit", help="send a transform request to a running daemon"
    )
    submit.add_argument(
        "--address", "-a", default="127.0.0.1:8791",
        help="server address: host:port, unix:/path, or a socket path "
             "(default 127.0.0.1:8791)",
    )
    submit.add_argument("--size", "-n", type=int, default=4096, help="transform length (default 4096)")
    submit.add_argument(
        "--signal", choices=["uniform", "normal", "tones"], default="uniform",
        help="synthetic input kind (ignored when --input is given)",
    )
    submit.add_argument("--input", help="file with one (complex) sample per line")
    submit.add_argument("--seed", type=int, default=None, help="seed for the synthetic input")
    submit.add_argument(
        "--scheme", default="opt-online+mem", type=_scheme_name,
        help="protection config in flag grammar, e.g. opt-online+mem+real "
             "(default: opt-online+mem)",
    )
    submit.add_argument(
        "--real", action="store_true",
        help="send a real float64 signal (adds the real flag to --scheme)",
    )
    submit.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="send N requests over the same connection (default 1)",
    )
    submit.add_argument(
        "--site", default=None, choices=[site.value for site in FaultSite],
        help="inject a live fault at this site on the server (solo execute path)",
    )
    submit.add_argument(
        "--kind", default=FaultKind.ADD_CONSTANT.value,
        choices=[kind.value for kind in FaultKind], help="corruption model for --site",
    )
    submit.add_argument(
        "--magnitude", type=float, default=10.0, help="constant used by add/set faults"
    )
    submit.add_argument("--output", "-o", help="write the first spectrum (re, im columns) here")
    submit.set_defaults(func=_cmd_submit)

    predict = sub.add_parser("predict", help="print the Section 7 overhead model")
    predict.add_argument("--size", "-n", type=int, default=2**25, help="problem size (default 2^25)")
    predict.add_argument("--ranks", "-p", type=int, default=None, help="also print parallel per-rank figures")
    predict.set_defaults(func=_cmd_predict)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
