"""Set-up of each workload: import maxflat and build what the workload needs.

Run as a script (``python3 bench/ready.py <workload>`` with ``src`` on
``PYTHONPATH``), it times one set-up in its own fresh interpreter, then
runs the machine-speed calibration in the same interpreter, and prints both
in seconds as JSON.  ``setup_s`` is the median of several such children.
"""

import json
import sys
import time


def build(workload: str) -> dict:
    """Import maxflat and build the workload's fixed objects."""
    import maxflat  # noqa: F401  (the package import is part of set-up)
    from maxflat import detector, tracker

    if workload == "detect-mc":
        return {tag: detector.build_detector(tag)
                for tag in detector.DETECTOR_TAGS}
    if workload == "track-long":
        return {tag: tracker.tracker_design(tag)
                for tag in tracker.TRACKER_CONFIGS}
    return {}


if __name__ == "__main__":
    t0 = time.perf_counter()
    build(sys.argv[1])
    setup_s = time.perf_counter() - t0
    import calib
    print(json.dumps({"setup_s": setup_s, "kernel_s": calib.calibrate()}))
