"""Protocol mining from static traces.

Aggregates :class:`repro.protomine.traces.ObjectTrace` sequences into a
usage model and proposes a typestate protocol:

* **may-follow** — which call pairs occur adjacently;
* **guards** — for each method m, how often it executes under a
  ``(test, outcome)`` guard; a method that is (almost) always guarded by
  ``test == true`` is protocol-dependent on that test;
* **state tests** — methods whose boolean result is branched on and
  whose outcomes discriminate subsequent behaviour;
* a candidate ``@States`` declaration and spec skeletons: the guard
  test's true/false outcomes become substates of ALIVE, the guarded
  method requires the true-state, and the test method gets
  ``@TrueIndicates``/``@FalseIndicates``.
"""

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.permissions.spec import MethodSpec, PermClause
from repro.permissions.states import StateSpace
from repro.protomine.traces import extract_traces

#: A method counts as guarded when at least this fraction of its
#: occurrences sit under the same (test, True) guard.  Deliberately below
#: 1.0: real programs contain buggy unguarded calls (the corpus's three
#: false-positive sites), and mining from imperfect traces is the whole
#: point of the statistical approach (cf. Perracotta).
GUARD_THRESHOLD = 0.75


@dataclass
class MinedProtocol:
    """The mining result for one protocol class."""

    class_name: str = ""
    trace_count: int = 0
    event_count: int = 0
    #: (a, b) -> adjacency count (call b directly after call a).
    follows: Counter = field(default_factory=Counter)
    #: first calls on freshly created objects.
    initial: Counter = field(default_factory=Counter)
    #: method -> Counter of guards ((test, outcome) or None).
    guard_profile: Dict[str, Counter] = field(default_factory=dict)
    #: detected state tests: test method -> (true state, false state).
    state_tests: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: guarded method -> (test method, required state).
    guarded_methods: Dict[str, Tuple[str, str]] = field(default_factory=dict)

    # -- queries ----------------------------------------------------------------

    def methods(self):
        names = set(self.guard_profile)
        for a, b in self.follows:
            names.add(a)
            names.add(b)
        return sorted(names)

    def may_follow(self, a, b):
        return self.follows.get((a, b), 0) > 0

    def proposed_state_space(self):
        """A candidate ``@States`` hierarchy from the detected tests."""
        declaration = ", ".join(
            "%s, %s" % states for states in self.state_tests.values()
        )
        return StateSpace.parse(self.class_name, declaration)

    def proposed_states_declaration(self):
        return ", ".join(
            "%s, %s" % states for states in self.state_tests.values()
        )

    def proposed_specs(self):
        """Spec skeletons: state clauses only (ANEK fills in the kinds)."""
        specs = {}
        for test, (true_state, false_state) in self.state_tests.items():
            specs[test] = MethodSpec(
                requires=[PermClause("pure", "this", "ALIVE")],
                ensures=[PermClause("pure", "this", "ALIVE")],
                true_indicates=true_state,
                false_indicates=false_state,
            )
        for method, (test, state) in self.guarded_methods.items():
            specs[method] = MethodSpec(
                requires=[PermClause("full", "this", state)],
                ensures=[PermClause("full", "this", "ALIVE")],
            )
        return specs

    def describe(self):
        lines = ["Mined protocol for %s" % self.class_name]
        lines.append(
            "  %d traces, %d events" % (self.trace_count, self.event_count)
        )
        if self.state_tests:
            for test, (true_state, false_state) in sorted(
                self.state_tests.items()
            ):
                lines.append(
                    "  state test %s(): true -> %s, false -> %s"
                    % (test, true_state, false_state)
                )
        for method, (test, state) in sorted(self.guarded_methods.items()):
            lines.append(
                "  %s() requires %s (guarded by %s() == true)"
                % (method, state, test)
            )
        lines.append("  may-follow:")
        for (a, b), count in sorted(self.follows.items()):
            lines.append("    %s -> %s  (%d)" % (a, b, count))
        return "\n".join(lines)


def _state_name(method, outcome):
    """HASNEXT-style state names from test methods and outcomes."""
    base = method.upper()
    for prefix in ("HAS", "IS", "CAN"):
        if base.startswith(prefix):
            base = base[len(prefix):]
            break
    base = base or method.upper()
    return ("HAS%s" % base) if outcome else ("NO%s" % base)


def mine_protocol(program, class_name, methods=None):
    """Mine the usage protocol of one API class from its clients."""
    traces = extract_traces(program, {class_name}, methods=methods)
    mined = MinedProtocol(class_name=class_name, trace_count=len(traces))
    for trace in traces:
        previous = None
        for event in trace.events:
            mined.event_count += 1
            profile = mined.guard_profile.setdefault(
                event.method_name, Counter()
            )
            profile[event.guard] += 1
            if previous is None:
                if trace.origin in ("new", "result"):
                    mined.initial[event.method_name] += 1
            else:
                mined.follows[(previous, event.method_name)] += 1
            previous = event.method_name
    _detect_state_tests(mined)
    return mined


def _detect_state_tests(mined):
    """Promote dominant (test, True) guards into state-test structure."""
    for method, profile in mined.guard_profile.items():
        total = sum(profile.values())
        if total == 0:
            continue
        for guard, count in profile.items():
            if guard is None:
                continue
            test, outcome = guard
            if test == method or not outcome:
                continue
            if count / total >= GUARD_THRESHOLD:
                true_state = _state_name(test, True)
                false_state = _state_name(test, False)
                mined.state_tests[test] = (true_state, false_state)
                mined.guarded_methods[method] = (test, true_state)
