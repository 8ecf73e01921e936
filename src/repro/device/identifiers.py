"""Device identifiers and PII placeholders.

Apps do not hard-code PII; they read it off the device at run time.  The
corpus generator therefore puts *placeholders* into payload templates
(``{{PII:ad_id}}``) and the automation harness substitutes the test
device's concrete values — exactly the situation the paper's PII analysis
faces: analysts know the test device's identifiers and search decrypted
traffic for them (Section 4.4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.util.rng import DeterministicRng

PII_PLACEHOLDER_PREFIX = "{{PII:"

#: The PII types the study searches for (Section 4.4).
PII_TYPES: Tuple[str, ...] = (
    "imei",
    "ad_id",
    "mac",
    "email",
    "state",
    "city",
    "latitude",
    "longitude",
)


def placeholder(pii_type: str) -> str:
    """The payload-template token for a PII type."""
    if pii_type not in PII_TYPES:
        raise ValueError(f"unknown PII type: {pii_type!r}")
    return f"{PII_PLACEHOLDER_PREFIX}{pii_type}}}}}"


@dataclass(frozen=True)
class DeviceIdentifiers:
    """Concrete PII values for one test device."""

    imei: str
    ad_id: str
    mac: str
    email: str
    state: str
    city: str
    latitude: str
    longitude: str

    @classmethod
    def generate(cls, rng: DeterministicRng) -> "DeviceIdentifiers":
        """Synthesize a plausible identifier set."""
        ad_id = "-".join(
            rng.hex_string(n) for n in (8, 4, 4, 4, 12)
        )
        mac = ":".join(rng.hex_string(2) for _ in range(6))
        return cls(
            imei="35" + "".join(str(rng.randint(0, 9)) for _ in range(13)),
            ad_id=ad_id,
            mac=mac,
            email=f"testuser{rng.randint(100, 999)}@example.org",
            state="Massachusetts",
            city="Boston",
            latitude=f"{42.0 + rng.random():.5f}",
            longitude=f"{-71.0 - rng.random():.5f}",
        )

    def as_dict(self) -> Dict[str, str]:
        return {
            "imei": self.imei,
            "ad_id": self.ad_id,
            "mac": self.mac,
            "email": self.email,
            "state": self.state,
            "city": self.city,
            "latitude": self.latitude,
            "longitude": self.longitude,
        }

    def substitute(self, text: str) -> str:
        """Replace every placeholder in a payload-template string.

        Runs once per payload field of every simulated request, so the
        placeholder-free common case returns immediately.
        """
        if PII_PLACEHOLDER_PREFIX not in text:
            return text
        for pii_type, value in self.as_dict().items():
            text = text.replace(placeholder(pii_type), value)
        return text
