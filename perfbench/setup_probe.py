"""Time the program's own set-up in a fresh interpreter and print seconds.

    python3 perfbench/setup_probe.py SRC_DIR ENCODER_PARAMS INTRINSICS

Set-up is importing ``pseudo3d`` (and with it numpy) and loading the encoder
parameter and camera intrinsics files.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import pseudo3d  # noqa: E402

pseudo3d.load_params(sys.argv[2])
pseudo3d.load_intrinsics(sys.argv[3])
print(time.perf_counter() - start)
