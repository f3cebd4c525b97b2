"""Fixed work that measures how fast the host runs Python right now.

    python3 perfbench/calibrate.py

``run.py`` spawns this between operations and times it from spawn to exit.
It starts an interpreter and imports the third-party packages the program
uses, and nothing from ``sclmon``: no change to the program can change its
time, only the host can.  Interpreter start-up and imports (reading and
unmarshalling code, allocating many small objects) slow down with the host
much as the monitor's own interpreter work does; a numeric loop tracked the
operations' drift less well.
"""

import concurrent.futures  # noqa: F401
import csv  # noqa: F401
import json  # noqa: F401

import numpy  # noqa: F401
import scipy.special  # noqa: F401
