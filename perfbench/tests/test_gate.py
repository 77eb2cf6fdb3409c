import json

from perfbench.oracle import Csr
from perfbench.run import check
from perfbench.stats import Tally, record

# A 4-node path 0-1-2-3.
CSR = Csr(4, [0, 1, 2], [1, 2, 3])


def gated(answers, ledger):
    tally = Tally()
    tally.add(len(answers))
    check(tally, CSR, answers, "answer")
    return tally, record({"metrics": {}}, tally, ledger)


def test_correct_answers_are_recorded(tmp_path):
    ledger = tmp_path / "results.jsonl"
    tally, recorded = gated([(0, 3, 3), (1, 2, 1), (3, 0, 3)], ledger)
    assert tally.fail_share == 0
    assert recorded
    assert json.loads(ledger.read_text()) == {"metrics": {}}


def test_a_wrong_answer_raises_fail_share_and_blocks_recording(tmp_path):
    ledger = tmp_path / "results.jsonl"
    tally, recorded = gated([(0, 3, 3), (1, 2, 2), (3, 0, 3)], ledger)
    assert tally.failed == 1
    assert tally.fail_share == 1 / 3
    assert not recorded
    assert not ledger.exists()


def test_unreachable_answers_travel_as_null(tmp_path):
    csr_answers = [(0, 3, None)]
    tally, recorded = gated(csr_answers, tmp_path / "results.jsonl")
    assert tally.failed == 1 and not recorded
