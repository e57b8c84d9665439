"""DET004 negative fixture: row/memcg-axis loops and whole-array sweeps."""

import numpy as np


class Pool:
    def pooled_scan(self, memcgs, u):
        res = self.resident[:u]
        acc_idx = np.flatnonzero(res & self.accessed[:u])
        rows = self.owner_row[:u][acc_idx].astype(np.int64)
        per_row = np.bincount(rows, minlength=self._row_cap)
        for r in np.flatnonzero(per_row):  # row axis, not page axis
            self.row_memcg[r].promo_hist_events += int(per_row[r])
        memcg_list = list(memcgs)
        for memcg in memcg_list:  # memcg axis, not page axis
            memcg.refresh_row_threshold()
        for bits in (self.accessed[:u], self.dirtied[:u]):  # two arrays
            bits[acc_idx] = False
        self.age_scans[:u][res] += 1  # whole-array sweep

    def setup(self):
        for name, dtype, fill in self._fields:  # schema walk, not pages
            setattr(self, name, np.full(0, fill, dtype=dtype))
