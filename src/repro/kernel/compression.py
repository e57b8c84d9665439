"""Compression cost/ratio model standing in for lzo on real page contents.

The paper (§6.3, Fig. 9) characterizes zswap's lzo compression fleet-wide:

* **ratio** — median 3x across jobs, spread 2-6x, with 31 % of cold memory
  incompressible (multimedia, encrypted user content);
* **latency** — decompression 6.4 us at p50 and 9.1 us at p98 per page;
  compression is a few times slower than decompression for lzo-class codecs.

We cannot compress real page bytes (there are none in a simulator), so each
page is assigned an *intrinsic compressed payload size* at allocation time,
drawn from its job's :class:`ContentProfile`.  Latency is then a linear
function of payload size calibrated to hit the paper's p50/p98 exactly at
the ratio distribution's corresponding quantiles.

The 2990-byte zsmalloc cutoff (73 % of a page) is enforced by zswap, not
here; this module only answers "what would lzo produce for this page?".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.common.units import PAGE_SIZE, seconds_to_cycles
from repro.common.validation import check_fraction, check_positive, require

__all__ = [
    "ContentProfile",
    "CompressionLatencyModel",
    "DEFAULT_LATENCY_MODEL",
    "sample_payloads",
]


@dataclass(frozen=True)
class ContentProfile:
    """Distribution of page compressibility for one job's data.

    Compressible pages draw a ratio from a lognormal centred on
    ``median_ratio`` (sigma controls the 2-6x spread); a fraction
    ``incompressible_fraction`` of pages instead draws a payload near the
    full page size, modelling multimedia/encrypted content that lzo cannot
    shrink.

    Attributes:
        median_ratio: median compression ratio of compressible pages (3.0).
        sigma: lognormal shape; 0.35 reproduces the paper's 2-6x spread.
        incompressible_fraction: fraction of pages that are incompressible
            (0.31 fleet-wide in the paper).
        min_ratio / max_ratio: clip range for sampled ratios.
    """

    median_ratio: float = 3.0
    sigma: float = 0.35
    incompressible_fraction: float = 0.31
    min_ratio: float = 1.2
    max_ratio: float = 8.0

    def __post_init__(self) -> None:
        check_positive(self.median_ratio, "median_ratio")
        check_positive(self.sigma, "sigma")
        check_fraction(self.incompressible_fraction, "incompressible_fraction")
        check_positive(self.min_ratio, "min_ratio")
        require(
            self.max_ratio >= self.min_ratio,
            f"max_ratio {self.max_ratio} < min_ratio {self.min_ratio}",
        )
        # Cached lognormal location: payloads are sampled on every scan
        # and the log of a frozen field never changes.
        object.__setattr__(
            self, "_log_median_ratio", float(np.log(self.median_ratio))
        )

    def sample_payload_bytes(
        self, n_pages: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Draw intrinsic compressed payload sizes for ``n_pages`` pages.

        Returns an int32 array in (0, PAGE_SIZE]; incompressible pages get
        payloads in the top of the range so zswap's cutoff rejects them.
        A one-request :func:`sample_payloads`.
        """
        return sample_payloads([(self, n_pages, rng)])


def sample_payloads(
    requests: Sequence[Tuple[ContentProfile, int, np.random.Generator]],
) -> np.ndarray:
    """Payload sizes for several ``(profile, n_pages, rng)`` requests.

    Each request draws from its own generator, in request order; the
    float transform then runs once over every draw.  Returns the
    requests' payloads concatenated, each exactly what
    :meth:`ContentProfile.sample_payload_bytes` returns for it alone.
    """
    # The RNG call sequence per request — one normal draw, one uniform
    # draw, one conditional integer draw — is part of the replay contract
    # and must not change.
    requests = [(p, n, rng) for p, n, rng in requests if n]
    if not requests:
        return np.zeros(0, dtype=np.int32)
    normals, incompressible, overrides = [], [], []
    for profile, n_pages, rng in requests:
        normals.append(
            rng.normal(profile._log_median_ratio, profile.sigma, size=n_pages)
        )
        mask = rng.random(n_pages) < profile.incompressible_fraction
        count = int(np.count_nonzero(mask))
        if count:
            # lzo on high-entropy data yields ~page-size output (it can even
            # expand slightly; we cap at PAGE_SIZE since zswap rejects it
            # either way).
            overrides.append(rng.integers(3200, PAGE_SIZE + 1, size=count))
        incompressible.append(mask)
    sizes = [n_pages for _p, n_pages, _rng in requests]
    # One buffer end to end: exp/clip/divide/ceil all run in place on the
    # normal draws (this sits on every kstaled scan and every allocation,
    # so the temporaries add up).
    ratios = np.concatenate(normals)
    np.exp(ratios, out=ratios)
    np.maximum(ratios, np.repeat([p.min_ratio for p, _n, _r in requests],
                                 sizes), out=ratios)
    np.minimum(ratios, np.repeat([p.max_ratio for p, _n, _r in requests],
                                 sizes), out=ratios)
    np.divide(PAGE_SIZE, ratios, out=ratios)
    np.ceil(ratios, out=ratios)
    np.minimum(ratios, PAGE_SIZE, out=ratios)
    payloads = ratios.astype(np.int32)
    if overrides:
        payloads[np.concatenate(incompressible)] = np.concatenate(overrides)
    return payloads


@dataclass(frozen=True)
class CompressionLatencyModel:
    """Linear latency-in-payload model for lzo (de)compression.

    ``decompress_seconds = base + per_byte * payload`` — calibrated so a 3x
    page (1366 B payload) costs 6.4 us and a 2x page (2048 B) costs 9.1 us,
    matching Fig. 9b's p50/p98.  Compression visits the full 4 KiB input
    regardless of output size, so its cost is modelled on PAGE_SIZE with a
    codec-specific multiplier.

    Attributes:
        decompress_base_seconds: fixed per-page decompression overhead.
        decompress_per_byte_seconds: marginal cost per payload byte.
        compress_cost_multiplier: lzo compression / decompression cost ratio.
    """

    decompress_base_seconds: float = 1.0e-6
    decompress_per_byte_seconds: float = 3.954e-9
    compress_cost_multiplier: float = 3.0

    def __post_init__(self) -> None:
        check_positive(self.decompress_base_seconds, "decompress_base_seconds")
        check_positive(self.decompress_per_byte_seconds, "decompress_per_byte_seconds")
        check_positive(self.compress_cost_multiplier, "compress_cost_multiplier")

    def decompress_seconds(self, payload_bytes: np.ndarray) -> np.ndarray:
        """Per-page decompression latency for the given payload sizes."""
        payloads = np.asarray(payload_bytes, dtype=np.float64)
        return self.decompress_base_seconds + (
            self.decompress_per_byte_seconds * payloads
        )

    def compress_seconds(self, n_pages: int) -> float:
        """Total time to compress ``n_pages`` full pages (input-bound)."""
        per_page = self.compress_cost_multiplier * (
            self.decompress_base_seconds
            + self.decompress_per_byte_seconds * PAGE_SIZE
        )
        return n_pages * per_page

    def decompress_cycles(self, payload_bytes: np.ndarray) -> np.ndarray:
        """Decompression cost in CPU cycles."""
        return seconds_to_cycles(self.decompress_seconds(payload_bytes))

    def compress_cycles(self, n_pages: int) -> float:
        """Compression cost in CPU cycles."""
        return seconds_to_cycles(self.compress_seconds(n_pages))


#: The calibrated default used throughout the simulator.
DEFAULT_LATENCY_MODEL = CompressionLatencyModel()
