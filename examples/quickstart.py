#!/usr/bin/env python3
"""Quickstart: the private selected-sum protocol in five minutes.

A client wants the sum of a secret subset of a server's database.  The
server must not learn which elements were selected (client privacy);
the client must learn nothing beyond the sum (database privacy).

This script walks the library's layers:

1. the one-call convenience API;
2. real Paillier cryptography, hands-on;
3. protocol runs with timing breakdowns under the paper's 2004
   performance model;
4. the optimization ladder of the paper's §3.

Run:  python examples/quickstart.py
"""

from repro import (
    EncryptedNumber,
    ServerDatabase,
    generate_keypair,
    private_selected_sum,
)
from repro.experiments.environments import short_distance
from repro.spfe import (
    BatchedSelectedSumProtocol,
    CombinedSelectedSumProtocol,
    PreprocessedSelectedSumProtocol,
    SelectedSumProtocol,
    audit_result,
)
from repro.datastore import WorkloadGenerator


def section(title):
    print("\n" + "=" * 72)
    print(title)
    print("=" * 72)


def one_call_api():
    section("1. One call: a private sum over five elements")
    database = ServerDatabase([17, 4, 23, 8, 15])
    selection = [1, 0, 1, 0, 1]  # the client's secret 0/1 vector
    result = private_selected_sum(database, selection)
    print("database (server-side):", list(database))
    print("selection (client-side, never revealed):", selection)
    print("private sum:", result.value, "(expected 17 + 23 + 15 = 55)")
    assert result.value == 55


def hands_on_paillier():
    section("2. The cryptography underneath: Paillier, hands on")
    keypair = generate_keypair(bits=512)
    print("generated a 512-bit Paillier key pair (the paper's size)")

    a = EncryptedNumber.encrypt(keypair.public, 20)
    b = EncryptedNumber.encrypt(keypair.public, 22)
    total = a + b  # multiply ciphertexts = add plaintexts
    print("E(20) (*) E(22) decrypts to:", total.decrypt(keypair.private))

    scaled = a * 3  # exponentiate = scalar-multiply
    print("E(20) ^ 3  decrypts to:", scaled.decrypt(keypair.private))

    again = EncryptedNumber.encrypt(keypair.public, 20)
    print(
        "two encryptions of 20 share a ciphertext:",
        a.ciphertext == again.ciphertext,
        "(semantic security: always False)",
    )


def timed_protocol_run():
    section("3. A paper-scale run under the 2004 performance model")
    generator = WorkloadGenerator("quickstart")
    n = 100_000
    database = generator.database(n)  # 100k random 32-bit values
    selection = generator.random_selection(n, 1_000)

    context = short_distance.context(seed="quickstart")
    result = SelectedSumProtocol(context).run(database, selection)
    result.verify(database.select_sum(selection))
    audit_result(result, selection)

    print("environment:", short_distance.description)
    print("n = %d elements, m = %d selected" % (result.n, result.m))
    print("modelled online runtime: %.1f minutes (paper: ~20)" % result.online_minutes())
    for name, minutes in result.component_minutes().items():
        if minutes:
            print("  %-20s %8.3f min" % (name, minutes))
    print("bytes moved: %.1f MB" % (result.total_bytes / 1e6))
    print("privacy audit: passed (ciphertexts only, no reuse)")


def optimization_ladder():
    section("4. The paper's optimization ladder (§3.2-§3.4)")
    generator = WorkloadGenerator("ladder")
    n = 100_000
    database = generator.database(n)
    selection = generator.random_selection(n, 1_000)
    expected = database.select_sum(selection)

    ladder = [
        ("plain (Fig 2)", SelectedSumProtocol),
        ("batched (Fig 4)", BatchedSelectedSumProtocol),
        ("preprocessed (Fig 5)", PreprocessedSelectedSumProtocol),
        ("combined (Fig 7)", CombinedSelectedSumProtocol),
    ]
    baseline_minutes = None
    for label, protocol_cls in ladder:
        context = short_distance.context(seed="ladder")
        result = protocol_cls(context).run(database, selection)
        result.verify(expected)
        minutes = result.online_minutes()
        if baseline_minutes is None:
            baseline_minutes = minutes
            note = "(baseline)"
        else:
            note = "(-%.0f%%)" % (100 * (1 - minutes / baseline_minutes))
        print("  %-22s %7.2f min online %s" % (label, minutes, note))


if __name__ == "__main__":
    one_call_api()
    hands_on_paillier()
    timed_protocol_run()
    optimization_ladder()
    print("\nAll quickstart steps completed.")
