"""DET004 positive fixture: per-page Python loops in pooled kernel code."""

import numpy as np


class Pool:
    def slow_scan(self, u):
        res = self.resident[:u]
        total = 0
        for page in np.flatnonzero(res & self.accessed[:u]):  # finding
            total += int(self.age_scans[page])
        for i in range(self.used):  # finding: range sized by the page count
            if self.state[i] == 2:
                total += 1
        return total

    def slow_resample(self, u):
        dirty = np.flatnonzero(self.dirtied[:u])
        for page in dirty:  # finding: page-axis local tracked via assignment
            self.payload_bytes[page] = 0

    def slow_mask(self, u):
        return [p for p in np.flatnonzero(self.unevictable[:u])]  # finding
