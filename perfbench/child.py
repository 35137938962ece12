"""One CLI command in a fresh interpreter, timed from inside.

    python3 child.py COMMAND CONFIG OUT TIMINGS [--trace SPANS --command-id N]
    python3 child.py warmup CONFIG SECONDS

Makes the calls ``rydvdw COMMAND --config CONFIG --out OUT`` makes: load
the config, run ``rydvdw.cli.run_<COMMAND>``, serialise the record with
``rydvdw.records`` (CSV rows for ``sweep``, JSON otherwise) and write
it.  Writes to TIMINGS the monotonic times at which the config was
loaded and the output written, and where ``rydvdw`` was imported from.  With
``--trace`` every public function of the package is wrapped first and
the spans are written to SPANS at exit.  Exit codes follow the CLI: 2
for a config error, 1 for a numeric error.

``warmup`` runs ``simulate`` on CONFIG repeatedly for SECONDS, so that
the timed commands start on a busy machine (see ``run.warm_up``).
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from spans import Tracer, now  # noqa: E402


def warmup(config: str, seconds: float) -> int:
    import rydvdw.cli as cli

    cfg = cli.load_config(config)
    while now() - T_START < seconds:
        cli.run_simulate(cfg)
    return 0


def run(args) -> int:
    tracer = Tracer(args.command_id) if args.trace else None
    stamps = {}
    try:
        if tracer:
            index = tracer.open("cli.import")
        import numpy
        import rydvdw.cli as cli
        from rydvdw import records

        if tracer:
            tracer.close(index)
            tracer.install("rydvdw")
        try:
            cfg = cli.load_config(args.config)
            stamps["loaded"] = now()
            record = getattr(cli, f"run_{args.command}")(cfg)
            if args.command == "sweep":
                text = records.rows_to_csv(record.results["rows"])
            else:
                text = record.to_json() + "\n"
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            stamps["written"] = now()
        except cli.ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        except (cli.NumericError, ValueError, numpy.linalg.LinAlgError) as exc:
            print(f"numeric error: {exc}", file=sys.stderr)
            return 1
        return 0
    finally:
        with open(args.timings, "w", encoding="utf-8") as handle:
            json.dump({"stamps": stamps, "rydvdw": sys.modules["rydvdw"].__file__
                       if "rydvdw" in sys.modules else None}, handle)
        if tracer:
            tracer.dump(args.trace)


def main(argv: list[str]) -> int:
    if argv[:1] == ["warmup"]:
        return warmup(argv[1], float(argv[2]))
    parser = argparse.ArgumentParser()
    parser.add_argument("command", choices=["solve", "simulate", "fidelity", "sweep"])
    parser.add_argument("config")
    parser.add_argument("out")
    parser.add_argument("timings")
    parser.add_argument("--trace", default=None)
    parser.add_argument("--command-id", type=int, default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
