"""``python -m repro predict`` — the analytical model's command line.

Three modes, mirroring the subsystem's three consumers:

* **single prediction** (default): compile a hic source, extract the
  model parameters, print the predicted metrics; ``--summary-json``
  writes the canonical byte-deterministic document;
* **``--sweep``**: evaluate a parameter grid analytically (organization
  x banks x link latency x traffic rate), print the Pareto frontier
  over throughput/wait/area, and optionally dump the whole grid;
* **``--validate``**: replay the model against the cycle-accurate
  simulator on the committed Figure-1 grid and fail (exit 1) if any
  enforced metric error exceeds the bound.

Out-of-range inputs die with the structured
:class:`~repro.core.errors.ParameterError` (exit 2), not a traceback.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .. import cli
from ..core.advisor import Organization
from ..core.errors import ControllerError
from ..hic.errors import HicError
from .parameters import extract_parameters
from .pareto import DEFAULT_MARGIN, run_sweep
from .predict import predict
from .validate import ERROR_BOUND, validate


def _predict_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro predict",
        description=(
            "Closed-form performance prediction from compile-time "
            "parameters (no simulation); see docs/performance_model.md. "
            "The fabric options are model inputs: --banks must be >= 1, "
            "and --kernel is the backend --validate simulates on."
        ),
    )
    parser.add_argument(
        "source",
        nargs="?",
        help=(
            "hic source file (optional with --validate, which defaults "
            "to the Figure-1 forwarding design)"
        ),
    )
    parser.add_argument(
        "--offchip-latency", type=int, default=0, metavar="CYCLES",
        help="extra cycles per off-chip access (default: 0)",
    )
    parser.add_argument(
        "--rate", type=float, default=1.0, metavar="P",
        help=(
            "Bernoulli traffic rate in [0, 1]; 1.0 = back-to-back "
            "(default: 1.0)"
        ),
    )
    parser.add_argument(
        "--summary-json", metavar="FILE",
        help="write the canonical prediction/sweep/validation JSON",
    )
    parser.add_argument(
        "--sweep", action="store_true",
        help="evaluate the parameter grid and print the Pareto frontier",
    )
    parser.add_argument(
        "--sweep-banks", type=int, nargs="+", default=[1, 2, 4],
        metavar="N", help="bank counts for --sweep (default: 1 2 4)",
    )
    parser.add_argument(
        "--sweep-links", type=int, nargs="+", default=[1, 2, 3],
        metavar="L", help="link latencies for --sweep (default: 1 2 3)",
    )
    parser.add_argument(
        "--sweep-rates", type=float, nargs="+", default=[0.02, 0.9],
        metavar="P", help="traffic rates for --sweep (default: 0.02 0.9)",
    )
    parser.add_argument(
        "--margin", type=float, default=DEFAULT_MARGIN,
        help=(
            "predict-prune safety margin around the frontier "
            f"(default: {DEFAULT_MARGIN})"
        ),
    )
    parser.add_argument(
        "--validate", action="store_true",
        help=(
            "replay the model against the simulator on the Figure-1 "
            "grid; exit 1 if any enforced error exceeds --bound"
        ),
    )
    parser.add_argument(
        "--bound", type=float, default=ERROR_BOUND,
        help=f"validation error bound (default: {ERROR_BOUND})",
    )
    cli.add_options(
        parser,
        "--organization", "--banks", "--link-latency", "--batch-size",
        "--deplist-entries", "--kernel",
    )
    parser.set_defaults(banks=1)
    return parser


def predict_main(argv: Optional[list] = None) -> int:
    args = _predict_parser().parse_args(argv)
    try:
        cli.check_outputs(args)
        if args.validate:
            return _run_validate(args)
        if args.source is None:
            print(
                "error: a hic source file is required unless --validate "
                "is given",
                file=sys.stderr,
            )
            return 2
        return _run_predict(args)
    except cli.UsageError as stop:
        return stop.code
    except ControllerError as error:
        # Structured parameter/controller failure: name the field, keep
        # the exit code distinct from compile errors.
        print(f"error: {error.describe()}", file=sys.stderr)
        return 2
    except HicError as error:
        print(f"error: {cli.hic_diagnostic(error, args)}", file=sys.stderr)
        return 1


def _compile(args):
    from ..flow import compile_design

    # Link latency and batch size stay model inputs (see _params), where
    # their range is checked with a structured error.
    return compile_design(
        cli.read_source(args.source),
        name=cli.design_name(args.source),
        organization=Organization(args.organization),
        deplist_entries=args.deplist_entries,
        num_banks=max(args.banks, 0),
    )


def _params(args, design):
    # CLI-level hardening: the predict surface models fabric deployments,
    # so banks <= 0 (like any negative latency or out-of-range rate) is
    # rejected with a structured error before any arithmetic runs.
    from ..core.errors import ParameterError

    if args.banks <= 0:
        raise ParameterError(
            "the predict CLI models fabric deployments: banks must be "
            ">= 1 (the API accepts banks=0 for the single-address-space "
            "flow)",
            parameter="banks",
            value=args.banks,
        )
    return extract_parameters(
        design,
        traffic_rate=args.rate,
        offchip_latency=args.offchip_latency,
        deplist_entries=args.deplist_entries,
    ).with_config(
        banks=args.banks,
        link_latency=args.link_latency,
        batch_size=args.batch_size,
    )


def _run_predict(args) -> int:
    design = _compile(args)
    params = _params(args, design)
    if args.sweep:
        result = run_sweep(
            params,
            banks=tuple(args.sweep_banks),
            link_latencies=tuple(args.sweep_links),
            rates=tuple(args.sweep_rates),
            margin=args.margin,
        )
        print(
            f"sweep: {len(result.points)} configurations, "
            f"{len(result.frontier)} on the predicted Pareto frontier, "
            f"{len(result.pruned)} kept at margin {args.margin}"
        )
        header = (
            f"{'org':<13} {'banks':>5} {'link':>4} {'rate':>5} "
            f"{'thr':>8} {'wait':>8} {'area':>6}"
        )
        print("predicted Pareto frontier (throughput, wait, area):")
        print("  " + header)
        for index in result.frontier:
            row = result.points[index].row()
            print(
                f"  {row['organization']:<13} {row['banks']:>5} "
                f"{row['link_latency']:>4} {row['traffic_rate']:>5} "
                f"{row['throughput']:>8.4f} {row['consumer_wait']:>8.2f} "
                f"{row['area_slices']:>6}"
            )
        if args.summary_json:
            import json

            cli.write_output(
                args.summary_json,
                json.dumps(result.to_dict(), indent=2, sort_keys=True)
                + "\n",
                "sweep summary",
            )
        return 0

    prediction = predict(params)
    p = prediction.params
    print(
        f"predicted ({p.organization.value}, {p.consumers} consumers, "
        f"{p.banks} banks, link {p.link_latency}, rate {p.traffic_rate}):"
    )
    print(
        f"  round period      {prediction.period:.2f} cycles "
        f"(producer loop {p.producer_loop}, consumer loop "
        f"{p.consumer_loop}, {p.producer_accesses} accesses)"
    )
    print(
        f"  throughput        {prediction.throughput:.4f} packets/cycle "
        f"(utilization {prediction.utilization:.0%})"
    )
    print(f"  consumer wait     {prediction.consumer_wait:.2f} cycles")
    e2e = (
        "unbounded (saturated)"
        if prediction.e2e_latency is None
        else f"{prediction.e2e_latency:.2f} cycles"
    )
    print(f"  end-to-end        {e2e}")
    print("  wait-state fractions:")
    for state, value in sorted(prediction.fractions.items()):
        print(f"    {state:<18} {value:.4f}")
    if args.summary_json:
        cli.write_output(
            args.summary_json, prediction.summary_json(), "prediction summary"
        )
    return 0


def _run_validate(args) -> int:
    source = cli.read_source(args.source) if args.source else None
    report = validate(source, bound=args.bound, kernel=args.kernel)
    print(report.render())
    if args.summary_json:
        cli.write_output(
            args.summary_json, report.to_json(), "validation report"
        )
    return 0 if report.within_bound else 1
