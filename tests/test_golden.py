"""Replays the golden CLI corpus (tests/golden/cli.jsonl) and requires the
recorded exit code and stdout bytes for every command; golden_corpus.py
says how the corpus was made and how to re-record it."""
from golden_corpus import load, pin, run_command


def test_cli_output_matches_golden_corpus(tmp_path):
    mismatches = []
    for entry in load():
        for case in entry["cases"]:
            code, stdout = run_command(case["argv"], entry["source"], tmp_path)
            want = {k: v for k, v in case.items() if k != "argv"}
            got = {"exit": code, **pin(stdout)}
            if got != want:
                mismatches.append(f"{entry['name']}: fqz {' '.join(case['argv'])}\n  want {want}\n  got  {got}")
    assert not mismatches, f"{len(mismatches)} command(s) differ from the golden corpus:\n" + "\n".join(mismatches[:5])
