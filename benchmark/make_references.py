"""Regenerate references.json from the unrelabelled catalog designs.

    python3 benchmark/make_references.py

The benchmark compares each relabelled copy against these values, so they
must come from a commit whose tier-1 suite passes; the script also refuses
to write them unless they agree with every published value the workloads
check.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction
from itertools import combinations

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from rbdesign import (  # noqa: E402
    a_value,
    automorphism_order,
    canonical_form,
    catalog,
    catalog_entry,
    efficiency_spectrum,
    is_sylvester_design,
    robustness,
)

from inputs import ISO_SOURCES  # noqa: E402
from workloads import (  # noqa: E402
    PUBLISHED_A4,
    PUBLISHED_RC_ISOMORPHIC,
    PUBLISHED_SYLVESTER_ORDERS,
    REFERENCES_PATH,
    round4,
)


def _text(x) -> str | None:
    return None if x is None else str(x)


def catalog_references() -> dict:
    out = {}
    for entry in catalog():
        d = entry.design
        rob = None
        if d.r >= 3:
            rep = robustness(d)
            rob = {
                "per_replicate": [_text(x) for x in rep.per_replicate],
                "worst": _text(rep.worst),
                "average": _text(rep.average),
            }
        out[entry.name] = {
            "a": str(a_value(d)),
            "factors": [[str(f.value) if f.exact else repr(f.value), f.multiplicity, f.exact]
                        for f in efficiency_spectrum(d).factors],
            "robustness": rob,
        }
    return out


def iso_references() -> dict:
    out = {}
    certificates: list[tuple[tuple, bytes]] = []
    for name in ISO_SOURCES:
        d = catalog_entry(name).design
        key = ((d.v, d.r, d.k), canonical_form(d).certificate)
        if key not in certificates:
            certificates.append(key)
        out[name] = {
            "class": certificates.index(key),
            "automorphism_order": automorphism_order(d),
            "sylvester": d.r == 8 and is_sylvester_design(d) is not None,
        }
    return out


def published_mismatches(refs: dict) -> list[str]:
    bad = []
    for name, want in PUBLISHED_A4.items():
        if round4(Fraction(refs["catalog"][name]["a"])) != want:
            bad.append(f"{name}: A does not round to {want}")
    iso = refs["iso"]
    for family, yes in PUBLISHED_RC_ISOMORPHIC.items():
        for r in range(2, 8):
            same = iso[f"{family}-r-{r}"]["class"] == iso[f"{family}-c-{r}"]["class"]
            if same != (r in yes):
                bad.append(f"{family} R/C r={r}: isomorphic={same}")
    for name, order in PUBLISHED_SYLVESTER_ORDERS.items():
        if iso[name]["automorphism_order"] != order or not iso[name]["sylvester"]:
            bad.append(f"{name}: order {iso[name]['automorphism_order']}")
    for a, b in combinations(PUBLISHED_SYLVESTER_ORDERS, 2):
        if iso[a]["class"] == iso[b]["class"]:
            bad.append(f"{a} isomorphic to {b}")
    return bad


def main() -> int:
    refs = {"catalog": catalog_references(), "iso": iso_references()}
    bad = published_mismatches(refs)
    if bad:
        print("refusing to write references:", *bad, sep="\n  ", file=sys.stderr)
        return 1
    with open(REFERENCES_PATH, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
