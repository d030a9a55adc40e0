"""Time nmoe's set-up in a fresh interpreter: importing nmoe.pipeline,
validating a config and building the client shards. Prints the seconds.

    python3 perfbench/setup_probe.py '<config json>'
"""

import json
import sys
import time

start = time.perf_counter()

import nmoe.pipeline  # noqa: E402  (the import is what is timed)
from nmoe.config import config_from_dict  # noqa: E402

nmoe.pipeline.build_shards(config_from_dict(json.loads(sys.argv[1])))
print(time.perf_counter() - start)
