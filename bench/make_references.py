"""Regenerate references.json: one fingerprint per workload and variant.

    python3 bench/make_references.py

Run it only on a commit whose outputs are known to be right; the
benchmark then holds every later commit to these numbers within
workloads.RTOL / workloads.ATOL.
"""

import json
import shutil
import tempfile

import env

env.prepare()
import workloads  # noqa: E402 - after prepare() pins threads and finds ilim


def main():
    refs = {}
    out_dir = env.ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    for name, cls in workloads.WORKLOADS.items():
        seeds = range(workloads.N_VARIANTS) if cls.seeded else [0]
        refs[name] = {}
        for seed in seeds:
            wl = cls(references={})  # fresh per-run state (report digest)
            inputs = wl.setup(seed)
            tmp = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
            try:
                out = wl.run(inputs, tmp)
                problems = wl.check_outputs(inputs, out, tmp)
                fingerprint = json.loads(json.dumps(wl.fingerprint(out)))
            finally:
                shutil.rmtree(tmp)
            if problems:
                raise SystemExit(f"{name} variant {seed}: {problems}")
            refs[name][wl.reference_key(seed)] = fingerprint
            print(name, seed, fingerprint, flush=True)
    workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
