"""IMP001 positive fixture: four imports nothing reads."""

import json
import os.path
from collections import OrderedDict, deque
from typing import Optional as Maybe


def head(items):
    return deque(items, maxlen=1)
