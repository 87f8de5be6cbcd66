"""
Discrete-event strings and the behavioral relation
==================================================

Each evaluation walks a thirteen-state loop and concatenates the emitted
words into a string: the risk word fires when DCPA is inside the action
radius, and at most one situation word encodes the (rule, obligation)
outcome.  Averaging indicator functions over sampled runs estimates the
same probabilities the density pipeline integrates for; counting
transitions estimates the automaton's behavioral relation.
"""

from colreg_risk import (
    ComfortZone,
    StateUncertainty,
    VesselState,
    estimate_behavioral_relation,
    estimate_probabilities,
    run_once,
    run_trace,
)
from colreg_risk.sampling import draw_pair

zone = ComfortZone(d_act=150.0, t_aware=600.0)

own = VesselState(0, 0, 0, 10)
target = VesselState(995.40, -95.85, 174.5, 10)
print("nominal head-on/port boundary run:", run_once(own, target, zone))

crossing = VesselState(1250, 1000, 270, 10)
print("nominal starboard-crossing run:   ", run_once(own, crossing, zone))
print()

# Sample the boundary encounter under tracker noise and aggregate.
unc = StateUncertainty(10.0, 10.0, 2.0, 2.0)
batch = draw_pair(own, StateUncertainty(0, 0, 0, 0), target, unc, 4000,
                  seed=7, clamp_speed=True)
rows = list(zip(batch.states_j.as_states(), batch.states_k.as_states()))
strings = [run_once(own_i, target_i, zone) for own_i, target_i in rows]
assessment = estimate_probabilities(strings, seed=7)
print(f"risk probability:      {assessment.p_risk:.3f}")
for rule, value in assessment.p_rule.items():
    print(f"  P({rule.name:>3}) = {value:.3f}")
print(f"give-way probability:  {assessment.p_give_way:.3f}")
print()

# The empirical behavioral relation: word probabilities per source state.
runs = [run_trace(own_i, target_i, zone) for own_i, target_i in rows[:500]]
relation = estimate_behavioral_relation(runs)
print("empirical output probabilities at the testing states:")
for state, word in (("U1", "aware_d"), ("U2", "aware_t"), ("U4", "u6"),
                    ("U4", "u7"), ("U8", "u15")):
    print(f"  H({word!r:9} | {state}) = {relation.output_probability(word, state):.3f}")
print(f"outgoing mass from U4 (always exactly one): "
      f"{relation.outgoing_mass('U4'):.1f}")
