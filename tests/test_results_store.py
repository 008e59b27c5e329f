"""Durable campaign results: journal, content addressing, triage.

The §5.2 log made crash-safe: every finished case is journaled as an
append-only JSONL record, keyed by content digests of the campaign's
identity and the case's plan XML, so ``--resume`` re-runs only what
actually needs re-running and triage can dissect the failures later.
"""

from __future__ import annotations

import json

import pytest

from repro.core.campaign import (CaseResult, FaultCase, run_campaign)
from repro.core.controller import TestOutcome
from repro.core.profiler import HeuristicConfig
from repro.core.results import (CampaignJournal, ResultStore, bucket_key,
                                campaign_digest, case_digest, outcome_class,
                                restore_result, result_record,
                                triage_records)
from repro.core.scenario import ErrorCode, plan_from_xml
from repro.errors import ResultsError
from repro.kernel import Kernel, O_CREAT, O_RDWR
from repro.obs import MemorySink, Telemetry
from repro.platform import LINUX_X86


def _case(fn="close", errno="EIO", ordinal=1):
    return FaultCase(fn, ErrorCode(-1, errno), ordinal)


def _result(case, status="normal", detail="", sites=None):
    return CaseResult(
        case=case,
        outcome=TestOutcome(test_id=case.case_id(), status=status,
                            exit_code=0 if status == "normal" else 1,
                            detail=detail, injections=1,
                            replay_xml="<plan name='r' />"),
        fired=True, seconds=0.25, worker="w0", instructions=123,
        events=[{"kind": "test", "fields": {"status": status}}],
        metrics={"repro_injections_total": 1},
        sites=list(sites or ()))


class TestDigests:
    def test_case_digest_is_plan_content(self):
        assert case_digest(_case()) == case_digest(_case())
        assert case_digest(_case()) != case_digest(_case(errno="EBADF"))
        assert case_digest(_case()) != case_digest(_case(ordinal=2))

    def test_campaign_digest_changes_with_each_input(
            self, libc_linux, libc_profiles_linux):
        base = dict(app="demo", platform=LINUX_X86,
                    profiles=libc_profiles_linux,
                    images={"libc.so.6": libc_linux.image},
                    heuristics=HeuristicConfig.default(),
                    workload="w1")
        key = campaign_digest(**base)
        assert key == campaign_digest(**base)       # deterministic
        assert key != campaign_digest(**{**base, "app": "other"})
        assert key != campaign_digest(**{**base, "workload": "w2"})
        assert key != campaign_digest(**{**base, "images": {}})
        flipped = HeuristicConfig.all_enabled()
        assert key != campaign_digest(**{**base, "heuristics": flipped})

    def test_profile_content_feeds_the_key(self, libc_profiles_linux):
        key = campaign_digest(app="demo", profiles=libc_profiles_linux)
        assert key != campaign_digest(app="demo", profiles={})


class TestJournal:
    def test_record_round_trips_through_restore(self, tmp_path):
        case = _case()
        original = _result(case, status="SIGSEGV", detail="boom\nlast line",
                           sites=[{"sequence": 1, "test": "t1",
                                   "function": "close", "call": 1,
                                   "retval": -1, "errno": "EIO",
                                   "calloriginal": False,
                                   "modifications": [],
                                   "stack": ["0x10", "main"]}])
        journal = CampaignJournal(tmp_path / "c", "k1", app="demo")
        journal.record(case_digest(case), case, original, "ok")
        journal.close()

        finished = journal.finished()
        rec = finished[case_digest(case)]
        restored = restore_result(case, rec)
        assert restored.case == original.case
        assert restored.outcome == original.outcome
        assert restored.fired == original.fired
        assert restored.seconds == original.seconds
        assert restored.worker == original.worker
        assert restored.instructions == original.instructions
        assert restored.events == original.events
        assert restored.metrics == original.metrics
        assert restored.sites == original.sites

    def test_last_record_wins_per_case(self, tmp_path):
        case = _case()
        journal = CampaignJournal(tmp_path / "c", "k1")
        journal.record(case_digest(case), case, _result(case), "ok")
        journal.record(case_digest(case), case,
                       _result(case, status="hung"), "hung")
        journal.close()
        finished = journal.finished()
        assert len(finished) == 1
        assert finished[case_digest(case)]["status"] == "hung"

    def test_torn_final_line_is_skipped_then_overwritten_cleanly(
            self, tmp_path):
        case = _case()
        journal = CampaignJournal(tmp_path / "c", "k1")
        journal.record(case_digest(case), case, _result(case), "ok")
        journal.close()
        # simulate a writer killed mid-record: a torn trailing fragment
        with open(journal.journal_path, "a", encoding="utf-8") as fh:
            fh.write('{"schema": "repro.case-result/1", "case_key": "tr')
        finished = journal.finished()
        assert list(finished) == [case_digest(case)]
        # the next append starts on a fresh line, so the journal stays
        # parseable and the torn fragment is inert forever
        other = _case(errno="EBADF")
        journal2 = CampaignJournal(tmp_path / "c", "k1")
        journal2.record(case_digest(other), other, _result(other), "ok")
        journal2.close()
        finished = journal2.finished()
        assert set(finished) == {case_digest(case), case_digest(other)}

    def test_foreign_campaign_records_are_ignored(self, tmp_path):
        case = _case()
        journal = CampaignJournal(tmp_path / "c", "k1")
        rec = result_record("OTHER", case_digest(case), case,
                            _result(case), "ok")
        journal.journal_path.write_text(json.dumps(rec) + "\n")
        assert journal.finished() == {}

    def test_index_cache_rebuilt_when_journal_moves(self, tmp_path):
        case = _case()
        journal = CampaignJournal(tmp_path / "c", "k1", app="demo")
        journal.record(case_digest(case), case, _result(case), "ok")
        journal.close()
        assert journal.summary()["cases"] == 1
        # append behind the index's back: the byte count disagrees, so
        # the summary must come from the journal, not the stale cache
        other = _case(errno="EBADF")
        journal2 = CampaignJournal(tmp_path / "c", "k1")
        journal2.record(case_digest(other), other,
                        _result(other, status="SIGSEGV"), "ok")
        summary = journal2.summary()
        assert summary["cases"] == 2
        assert summary["outcomes"] == {"normal": 1, "SIGSEGV": 1}

    def test_meta_remembers_the_app(self, tmp_path):
        CampaignJournal(tmp_path / "c", "k1", app="pidgin")
        reopened = CampaignJournal(tmp_path / "c", "k1")
        assert reopened.app == "pidgin"


class TestResultStore:
    def _store_with(self, tmp_path, *keys):
        store = ResultStore(tmp_path)
        for key in keys:
            journal = store.open_campaign(key, app="demo")
            case = _case()
            journal.record(case_digest(case), case, _result(case), "ok")
            journal.close()
        return store

    def test_campaign_listing(self, tmp_path):
        store = self._store_with(tmp_path, "aa11", "bb22")
        listed = store.campaigns()
        assert {c["campaign"] for c in listed} == {"aa11", "bb22"}
        assert all(c["cases"] == 1 for c in listed)

    def test_resolve_unique_prefix_and_sole_campaign(self, tmp_path):
        store = self._store_with(tmp_path, "aa11", "bb22")
        assert store.resolve("aa") == "aa11"
        sole = self._store_with(tmp_path / "one", "cc33")
        assert sole.resolve() == "cc33"

    def test_resolve_missing_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ResultsError, match="no campaign"):
            store.resolve("dead")

    def test_resolve_ambiguous_names_candidates(self, tmp_path):
        store = self._store_with(tmp_path, "ab11", "ab22")
        with pytest.raises(ResultsError, match="ambiguous.*longer"):
            store.resolve("ab")

    def test_load_missing_campaign_raises(self, tmp_path):
        store = ResultStore(tmp_path)
        with pytest.raises(ResultsError, match="no campaign"):
            store.load("feedface")


class TestTriage:
    def _failing_record(self, case, status="SIGSEGV", stack=("0x10", "f"),
                        detail="top\nbottom line"):
        sites = [{"sequence": 1, "test": case.case_id(),
                  "function": case.function, "call": case.call_ordinal,
                  "retval": case.code.retval, "errno": case.code.errno,
                  "calloriginal": False, "modifications": [],
                  "stack": list(stack)}]
        return result_record(
            "k1", case_digest(case), case,
            _result(case, status=status, detail=detail, sites=sites), "ok")

    def test_outcome_classes(self):
        assert outcome_class("SIGSEGV") == "crash"
        assert outcome_class("SIGABRT") == "crash"
        assert outcome_class("crashed") == "crash"
        assert outcome_class("hung") == "hang"
        assert outcome_class("error-exit") == "detected-error"
        assert outcome_class("normal") is None

    def test_same_site_same_bucket_distinct_cases(self):
        a = self._failing_record(_case(ordinal=1))
        b = self._failing_record(_case(ordinal=2))
        assert a["case_key"] != b["case_key"]
        assert bucket_key(a) == bucket_key(b)

    def test_distinct_stacks_split_buckets(self):
        a = self._failing_record(_case(), stack=("0x10", "reader"))
        b = self._failing_record(_case(), stack=("0x20", "writer"))
        assert bucket_key(a) != bucket_key(b)

    def test_non_failure_has_no_bucket(self):
        rec = result_record("k1", case_digest(_case()), _case(),
                            _result(_case(), status="normal"), "ok")
        assert bucket_key(rec) is None

    def test_triage_groups_ranks_and_replays(self):
        crash_site = [self._failing_record(_case(ordinal=n))
                      for n in (1, 2, 3)]
        hang = self._failing_record(_case("read", errno="EINTR"),
                                    status="hung", stack=("poll_loop",))
        ok = result_record("k1", case_digest(_case("open")), _case("open"),
                           _result(_case("open")), "ok")
        report = triage_records("k1", crash_site + [hang, ok], app="demo")
        assert report.cases == 4
        assert [b.count for b in report.buckets] == [3, 1]
        top = report.buckets[0]
        assert top.outcome_class == "crash"
        assert top.exemplar == _case(ordinal=1).case_id()
        assert top.detail == "bottom line"        # last line only
        # the replay plan parses and re-targets the faulted call
        plan = plan_from_xml(top.replay_xml)
        (trigger,) = plan.triggers
        assert trigger.function == "close"
        assert trigger.codes == (ErrorCode(-1, "EIO"),)

    def test_error_exits_join_only_on_request(self):
        err = self._failing_record(_case(), status="error-exit")
        assert triage_records("k1", [err]).buckets == []
        report = triage_records("k1", [err], include_errors=True)
        assert report.buckets[0].outcome_class == "detected-error"

    def test_replay_falls_back_to_stored_script_without_sites(self):
        rec = self._failing_record(_case())
        rec["sites"] = []
        report = triage_records("k1", [rec])
        assert report.buckets[0].replay_xml == rec["replay"]

    def test_render_mentions_rank_and_site(self):
        report = triage_records(
            "deadbeefdeadbeef",
            [self._failing_record(_case(), stack=("0x10", "refresh"))])
        text = report.render()
        assert "#1 [crash] close/EIO ×1" in text
        assert "0x10<-refresh" in text


def _copytool_factory(libc_linux):
    def factory(lfi):
        def session():
            proc = lfi.make_process(Kernel(), [libc_linux.image])
            fd = proc.libcall("open", proc.cstr("/f"),
                              O_CREAT | O_RDWR, 0o644)
            buf = proc.scratch_alloc(4)
            proc.mem_write(buf, b"data")
            proc.libcall("write", fd, buf, 4)
            rc = proc.libcall("close", fd)
            return 1 if rc != 0 else 0
        return session
    return factory


def _assert_resume_follows_cases(events, *later_kinds):
    """``campaign.resume`` is emitted once, after the last ``case``
    event and before ``later_kinds`` and ``campaign.end``."""
    kinds = [e.kind for e in events]
    assert kinds.count("campaign.resume") == 1
    at = kinds.index("campaign.resume")
    assert "case" in kinds and "case" not in kinds[at:]
    for kind in later_kinds + ("campaign.end",):
        assert kinds.index(kind) > at


class TestEngineIntegration:
    def _cases(self):
        return [FaultCase("close", ErrorCode(-1, e), 1)
                for e in ("EIO", "EBADF", "EINTR")]

    def test_fresh_run_journals_every_case(self, tmp_path, libc_linux,
                                           libc_profiles_linux):
        store = ResultStore(tmp_path)
        report = run_campaign("demo", _copytool_factory(libc_linux),
                              LINUX_X86, libc_profiles_linux, self._cases(),
                              results=store,
                              results_key={"app": "demo"})
        assert report.resumed == {"skipped": 0, "replayed": 3}
        # the engine fills platform/profiles into the identity itself
        key = store.resolve()
        assert key == store.campaign_key(
            app="demo", platform=LINUX_X86, profiles=libc_profiles_linux)
        finished = store.load(key)
        assert len(finished) == 3
        assert {r["status"] for r in finished.values()} == {"error-exit"}
        # every journaled record carries the injection sites for triage
        assert all(r["sites"] for r in finished.values())

    def test_resume_skips_journaled_cases(self, tmp_path, libc_linux,
                                          libc_profiles_linux):
        sink = MemorySink()
        tele = Telemetry(sinks=[sink])
        common = dict(results=ResultStore(tmp_path),
                      results_key={"app": "demo"})
        first = run_campaign("demo", _copytool_factory(libc_linux),
                             LINUX_X86, libc_profiles_linux, self._cases(),
                             **common)
        resumed = run_campaign("demo", _copytool_factory(libc_linux),
                               LINUX_X86, libc_profiles_linux,
                               self._cases(), resume=True,
                               telemetry=tele, **common)
        assert resumed.resumed == {"skipped": 3, "replayed": 0}
        assert [r.outcome.status for r in resumed.results] == \
            [r.outcome.status for r in first.results]
        events = [e for e in sink.events if e.kind == "campaign.resume"]
        assert events[0].fields["skipped"] == 3
        assert events[0].fields["replayed"] == 0
        hits = tele.metrics.snapshot()[
            "repro_result_store_hits_total"]["values"]
        assert sum(v["value"] for v in hits) == 3
        _assert_resume_follows_cases(sink.events)

        # guided mode shares the loop: one resume event, after its cases
        sink = MemorySink()
        run_campaign("demo", _copytool_factory(libc_linux), LINUX_X86,
                     libc_profiles_linux, self._cases(), guided=True,
                     telemetry=Telemetry(sinks=[sink]),
                     results=ResultStore(tmp_path / "guided"),
                     results_key={"app": "demo"})
        _assert_resume_follows_cases(sink.events, "campaign.guided")

    def test_changed_case_reruns_unchanged_skip(self, tmp_path, libc_linux,
                                                libc_profiles_linux):
        store = ResultStore(tmp_path)
        common = dict(results=store, results_key={"app": "demo"})
        run_campaign("demo", _copytool_factory(libc_linux), LINUX_X86,
                     libc_profiles_linux, self._cases()[:2], **common)
        # one old case + one never-journaled case: only the new one runs
        mixed = [self._cases()[0],
                 FaultCase("close", ErrorCode(-1, "ENOSPC"), 1)]
        report = run_campaign("demo", _copytool_factory(libc_linux),
                              LINUX_X86, libc_profiles_linux, mixed,
                              resume=True, **common)
        assert report.resumed == {"skipped": 1, "replayed": 1}
        assert len(report.results) == 2

    def test_changed_campaign_identity_shares_nothing(
            self, tmp_path, libc_linux, libc_profiles_linux):
        store = ResultStore(tmp_path)
        run_campaign("demo", _copytool_factory(libc_linux), LINUX_X86,
                     libc_profiles_linux, self._cases(),
                     results=store, results_key={"app": "demo"})
        report = run_campaign("demo", _copytool_factory(libc_linux),
                              LINUX_X86, libc_profiles_linux, self._cases(),
                              resume=True, results=store,
                              results_key={"app": "demo",
                                           "workload": "other"})
        assert report.resumed == {"skipped": 0, "replayed": 3}
        assert len(store.campaigns()) == 2

    def test_without_a_store_reports_are_unannotated(
            self, libc_linux, libc_profiles_linux):
        report = run_campaign("demo", _copytool_factory(libc_linux),
                              LINUX_X86, libc_profiles_linux,
                              self._cases()[:1])
        assert report.resumed is None
        assert "resumed" not in report.to_dict()
