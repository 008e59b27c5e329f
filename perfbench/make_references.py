"""Regenerate the committed correctness references.

    PYTHONPATH=src python3 perfbench/make_references.py

Each campaign reference comes from one fresh, serial, journaled run of
the exhaustive campaign in enumeration order: per case its outcome
class and whether the fault fired, plus the canonical failure-mode
matrix.  The guided workload's reference covers its whole ordinal axis
(up to the golden call counts, as far as the frontier can expand) and
records the cell set of the exhaustive run over its enumerated cases.
The web reference is the body digest of the unshimmed server's PHP
page.  Order-independent, so they hold for every seed.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from repro.apps import MiniWeb, PHP_PAGE
from repro.core.campaign import PrefixFactory, enumerate_cases, run_campaign
from repro.core.profiler import Profiler
from repro.core.results import ResultStore
from repro.corpus.libc import libc
from repro.kernel import Kernel, build_kernel_image
from repro.platform import LINUX_X86

from workloads import (REFERENCES, WORKLOADS, DigestClient, cell_set,
                       matrix_doc)


def campaign(workload, profiles, ordinals, tmp):
    setup, run = workload.program()
    factory = PrefixFactory(setup, run, workload_id=workload.name)
    cases = enumerate_cases(profiles, functions=workload.functions,
                            call_ordinals=tuple(ordinals))
    store = ResultStore(Path(tmp) / f"{workload.name}-{len(cases)}")
    # serial in-process, except where a case hangs: that one needs the
    # process backend's timeout to be reaped, still one case at a time
    report = run_campaign(workload.name, factory, LINUX_X86, profiles,
                          cases, jobs=1, backend=workload.backend,
                          timeout=workload.timeout, results=store,
                          results_key={"app": workload.name})
    cases_ref = {r.case.case_id(): [r.outcome_class, r.fired]
                 for r in report.results}
    return cases_ref, matrix_doc(store), report


def main() -> int:
    image = libc(LINUX_X86).image
    profiles = Profiler(LINUX_X86, {image.soname: image},
                        build_kernel_image(LINUX_X86)).profile_all()
    REFERENCES.mkdir(exist_ok=True)
    docs = {}
    with tempfile.TemporaryDirectory(dir=REFERENCES.parent.parent
                                     / ".perfbench") as tmp:
        for name in ("minidb-exhaustive", "pidgin-isolated"):
            workload = WORKLOADS[name](name, 0, Path(tmp))
            cases, matrix, report = campaign(workload, profiles,
                                             workload.ordinals, tmp)
            docs[name] = {"cases": cases, "matrix": matrix}
            print(f"{name}: {len(cases)} cases, classes "
                  f"{report.classes()}")

        name = "miniweb-guided-snapshot"
        workload = WORKLOADS[name](name, 0, Path(tmp))
        _, seed_matrix, _ = campaign(workload, profiles, workload.ordinals,
                                     tmp)
        workload.profiles = profiles
        workload.factory = PrefixFactory(*workload.program())
        workload.golden()
        depth = max(workload.golden_counts[f] for f in workload.functions)
        cases, _, report = campaign(workload, profiles,
                                    range(1, depth + 1), tmp)
        docs[name] = {"cases": cases, "cells": cell_set(seed_matrix)}
        print(f"{name}: {len(cases)} cases over ordinals 1..{depth}, "
              f"{len(docs[name]['cells'])} cells")

    bare = DigestClient(MiniWeb(Kernel(os_name=LINUX_X86.os), LINUX_X86))
    ok, body = bare.request(PHP_PAGE)
    if not ok:
        print("web-passthrough: unshimmed server did not answer 200",
              file=sys.stderr)
        return 1
    docs["web-passthrough"] = {
        "body_sha256": hashlib.sha256(body).hexdigest(),
        "body_bytes": len(body)}

    for name, doc in docs.items():
        (REFERENCES / f"{name}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
