#!/usr/bin/env python
"""Protocol mining + ANEK: the paper's §5 future-work combination.

The paper's related work "addressed the related but different problem of
protocol inference ... these approaches clearly complement our own, and
in the future we plan to investigate their combination."  This example
performs that combination end to end:

1. strip the Iterator API of its state protocol (keep only what a
   plain type signature gives you);
2. *mine* the protocol statically from how clients use the API —
   recovering hasNext() as the state test guarding next();
3. install the mined ``@States``/``@TrueIndicates`` specs on the API;
4. run ANEK + PLURAL as usual: the buggy unguarded call is flagged
   against a protocol nobody wrote by hand.

    python examples/protocol_mining.py
"""

from repro.corpus import CorpusSpec, generate_pmd_corpus
from repro.java.parser import parse_compilation_unit
from repro.java.symbols import resolve_program
from repro.protomine import mine_protocol


def main():
    bundle = generate_pmd_corpus(CorpusSpec().scaled(0.1))
    program = resolve_program(
        [parse_compilation_unit(s) for s in bundle.all_sources()]
    )

    print("Step 1-2: mine the Iterator protocol from %d client classes"
          % (len(program.classes) - 5))
    mined = mine_protocol(program, "Iterator")
    print()
    print(mined.describe())
    print()

    print("Step 3: proposed protocol artifacts")
    print("  @States(\"%s\")" % mined.proposed_states_declaration())
    for name, spec in sorted(mined.proposed_specs().items()):
        print("  %-10s %s" % (name, spec))
    print()

    print("Step 4: sanity-check the mined protocol against the one the")
    print("API authors actually wrote (Figure 2):")
    iterator = program.lookup_class("Iterator")
    from repro.permissions.spec import spec_of_method

    declared_next = spec_of_method(iterator.find_method("next")[0])
    mined_next = mined.proposed_specs()["next"]
    print(
        "  declared next(): requires state %s   mined: requires state %s"
        % (declared_next.requires[0].state, mined_next.requires[0].state)
    )
    declared_test = spec_of_method(iterator.find_method("hasNext")[0])
    mined_test = mined.proposed_specs()["hasNext"]
    print(
        "  declared hasNext(): true->%s   mined: true->%s"
        % (declared_test.true_indicates, mined_test.true_indicates)
    )
    print()

    print("Step 5: strip the hand-written protocol, install the mined")
    print("one, and run ANEK + PLURAL against it:")
    from repro.core import AnekPipeline
    from repro.protomine import install_protocol, strip_protocol

    fresh = resolve_program(
        [parse_compilation_unit(s) for s in bundle.all_sources()]
    )
    stripped = strip_protocol(fresh, "Iterator")
    installed = install_protocol(fresh, mined)
    print(
        "  stripped %d hand-written annotations; installed %d mined specs"
        % (stripped, installed)
    )
    result = AnekPipeline().run_on_program(fresh)
    print("  PLURAL warnings under the mined protocol: %d" % len(result.warnings))
    for warning in result.warnings:
        print("    " + warning.format())


if __name__ == "__main__":
    main()
