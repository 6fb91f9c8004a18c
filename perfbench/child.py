"""One benchmark run in a fresh interpreter; started by run.py, not by hand.

    python3 child.py setup CONFIG RESULT
    python3 child.py run   CONFIG RESULT OUT_DIR THREADS TRACE

``setup`` imports nsfarfield, parses the config and builds the scenario, then
exits.  ``run`` executes ``nsfarfield all`` through ``cli.main``.  Both write a
JSON result with time.monotonic() stamps, which run.py compares with the stamp
it took just before starting this interpreter.
"""

import json
import os
import resource
import sys
import time


def main(argv):
    mode, config, result_path = argv[:3]
    import numpy
    from nsfarfield import cli

    result = {"nsfarfield": os.path.abspath(cli.__file__),
              "numpy": numpy.__version__,
              "python": sys.version.split()[0]}
    if mode == "setup":
        with open(config) as fh:
            cli.build_scenario(cli.parse_config(fh.read()))
        result["built"] = time.monotonic()
    else:
        out_dir, threads, trace = argv[3], argv[4], argv[5] == "1"
        tracer = None
        if trace:
            import spans
            tracer = spans.Tracer()
            spans.instrument(tracer)
        # the first scenario build inside cli.main ends set-up
        build = cli.build_scenario

        def build_scenario(cfg):
            out = build(cfg)
            result.setdefault("built", time.monotonic())
            return out

        cli.build_scenario = build_scenario
        result["rc"] = cli.main(["all", "--config", config, "--out", out_dir,
                                 "--threads", threads])
        result["end"] = time.monotonic()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = usage.ru_utime + usage.ru_stime
        result["maxrss_kb"] = usage.ru_maxrss
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
