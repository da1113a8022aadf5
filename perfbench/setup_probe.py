"""Set-up work a user pays before a workload's first op, in a fresh interpreter.

Imports hybridpar.cli, then parses every config file of the workload and
builds every plan its ops will run. Usage:

    python3 perfbench/setup_probe.py MANIFEST.json

where the manifest is {"configs": [path, ...], "plans": [[config_index,
seed, variant, k_or_null], ...]}. The parent process times the whole
interpreter, start to exit.
"""
import json
import sys

from hybridpar.cli import PlanVariant, load_config


def main(manifest_path: str) -> None:
    with open(manifest_path, "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    configs = [load_config(p) for p in manifest["configs"]]
    for index, seed, variant, k in manifest["plans"]:
        configs[index].to_plan(seed=seed, variant=PlanVariant(variant), k=k)


if __name__ == "__main__":
    main(sys.argv[1])
