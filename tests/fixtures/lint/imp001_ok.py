"""IMP001 negative fixture: every import is read, exported or marked."""

from __future__ import annotations

import os.path
import typing as typing
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List

import json  # noqa: F401  (imported for its side effects)
from collections import (  # noqa: F401
    ChainMap,
)
from textwrap import dedent

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["OrderedDict", "first"]


def first(path: "os.PathLike", amounts: List["Decimal"]) -> Dict[str, int]:
    table: Dict[str, int] = {}
    return {os.path.basename(path): len(amounts), **table}


def indented(text):
    return f"{dedent(text)}"
