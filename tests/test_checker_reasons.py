"""Every reason the certificate checker can return, each produced by the
smallest edit that must produce it.

Most edits change one or two fields of a generated certificate of a
README case.  A few reasons need facts that no certificate of the
canonical template can hold: every claim that passes its check is then
true of the threshold assignment u_k = [k > a], so the referenced facts
are never contradictory and every plausible family keeps a survivor.
Those reasons are produced by two-node certificates checked against
(1-in-3, 1-in-3), under which [17, 17, 15] forces u_17 = 0 and
[16, 16, 17] forces u_17 = 1 at p = 7.  No field edit of a certificate
whose pairs all lie near the threshold reaches the near-threshold
reason, so that one comes from a one-node certificate at b = 2.
"""

import dataclasses
import functools
import json

import pytest

from pcsp.certificates import (Certificate, CertificateError, Node, ProofContext,
                               certificate_from_json,
                               certificate_to_json, claim_absolute, claim_distinct,
                               gen_certificate, rect_term, verify_certificate)
from pcsp.structures import Template, build_family

CASE_4A = (1, 3, "4a", 13, 1)  # p = 13, a = 56, m_half = 1, m_flip = 2
CASE_1 = (2, 5, "1", 11, 0)
CASE_4A_B0 = (1, 3, "4a", 7, 0)

# the (1-in-3, NAE-3), p = 13 certificate's finale: pattern heights 3 and 4,
# first height 5 on m = 6 blocks
FINALE_A = [5] * 6 + [3] * 7
FINALE_B = [5] * 6 + [4] * 7


@functools.lru_cache(maxsize=None)
def _text(args) -> str:
    return certificate_to_json(gen_certificate(ProofContext(*args)))


def _verdict(obj, tmpl):
    result = verify_certificate(certificate_from_json(json.dumps(obj)), tmpl)
    return result.ok, result.failed_node, result.reason


def _first(obj, tag) -> int:
    return next(i for i, nd in enumerate(obj["nodes"]) if nd["justify"]["tag"] == tag)


def _set(section, key, value):
    def edit(node):
        node[section][key] = value
    return edit


def _bump_tuple(index, delta):
    """Add delta to one entry of a plausible1d node's tuple."""
    def edit(node):
        node["justify"]["tuples"][0][index] += delta
    return edit


def _flip_claim(node):
    claim = node["claim"]
    if claim["kind"] in ("distinct", "equal"):
        claim["kind"] = "equal" if claim["kind"] == "distinct" else "distinct"
    else:
        claim["bit"] ^= 1


def _drop_ref(node):
    node["refs"] = node["refs"][:-1]


def _own_ref(node):
    node["refs"] = [node["id"]]


def _finale_claim_side(node):
    node["claim"]["a"]["blocks"] = node["claim"]["a"]["blocks"][:-1]


def _finale_claim_swapped(node):
    claim = node["claim"]
    claim["a"], claim["b"] = claim["b"], claim["a"]


def _one_run(k, p):
    full, rest = divmod(k, p)
    return ([p] * full + [rest] + [0] * p)[:p]


# (case, tag of the edited node, edit, reason); the edited node is the
# first node of that tag, and it is the node that fails
FIELD_EDITS = [
    (CASE_4A, "closure", lambda nd: nd.update(claim=1), "claim is not a JSON object"),
    (CASE_4A, "closure", lambda nd: nd.update(justify=[]),
     "justification is not a JSON object"),
    (CASE_4A, "closure", lambda nd: nd.update(refs=["0"]),
     "reference '0' is not an integer"),
    (CASE_4A, "closure", _own_ref, "reference 14 is not an earlier node"),
    (CASE_4A, "closure", _drop_ref, "claim does not follow from the referenced facts"),
    (CASE_4A, "closure", _flip_claim, "claim contradicts the referenced facts"),
    (CASE_4A, "closure", _set("justify", "tag", "hint"), "unknown justification 'hint'"),
    (CASE_4A, "plausible1d", _flip_claim, "claim is not forced by the constraint"),
    (CASE_4A, "plausible1d", lambda nd: nd["justify"].update(tuples=nd["justify"]["tuples"] * 2),
     "plausible tuple nodes carry exactly one tuple"),
    (CASE_4A, "plausible1d", _bump_tuple(0, -56),
     "tuple [1, 56, 56] is not plausible"),
    (CASE_4A, "plausible1d", _set("justify", "twin", 0), "twin flag is not true or false"),
    (CASE_4A, "plausible1d", _set("justify", "twin", True),
     "complement rule needs a disequality pair"),
    (CASE_1, "plausible1d", _set("justify", "twin", True),
     "complement rule unavailable for this tuple"),
    (CASE_1, "plausible1d", _set("justify", "tuples", [[50, 51, 52, 53, 36]]),
     "malformed node: too many undetermined classes for a local check"),
    (CASE_4A, "plausible1d", lambda nd: nd.update(justify={"tag": "negation", "k": 56}),
     "negation step needs a disequality pair"),
    (CASE_1, "negation", _set("justify", "k", 122), "negation index out of range"),
    (CASE_1, "negation", lambda nd: nd.update(justify={"tag": "negation",
                                                      "blocks": _one_run(60, 11)}),
     "malformed node: missing field 'k'"),
    (CASE_4A, "double_cyclicity", _set("claim", "blocks", [0, 2] + [1] * 11),
     "row-wise reading needs step size at most one"),
    # the vector above is no almost rectangle; this one is one of step 2,
    # with the block sum, 51, of the rectangle the node names
    (CASE_4A, "double_cyclicity", _set("claim", "blocks", FINALE_A),
     "row-wise reading needs step size at most one"),
    (CASE_4A, "double_cyclicity", _set("claim", "kind", "forced"),
     "claim does not name the flattened rectangle"),
    (CASE_4A, "halving", _set("claim", "kind", "forced"),
     "claim does not name the constructed rectangle"),
    (CASE_4A, "completion", _set("claim", "blocks", [4] * 6 + [3] * 6 + [5]),
     "completion rejected: completion needs an almost rectangle"),
    (CASE_4A, "completion", _set("claim", "blocks", [13] * 13),
     "completion rejected: area too far from the threshold to complete"),
    (CASE_4A, "completion", _set("claim", "blocks", [7] * 7 + [0] * 6),
     "completion rejected: completion column 0 out of range (-1)"),
    # at m_half = 1 the completion is 13 - z blockwise, of z's step 0
    (CASE_4A, "halving", _set("claim", "blocks", [4] * 13),
     "halving rejected: halving needs step size >= 2"),
    (CASE_4A, "boundedness", _finale_claim_side,
     "claim does not name the two finale rectangles"),
    (CASE_4A, "boundedness", _finale_claim_swapped,
     "claim does not name the two finale rectangles"),
    (CASE_4A, "boundedness", _set("justify", "z22", 3),
     "pattern heights leave the pigeonhole interval"),
    (CASE_4A, "closure", lambda nd: nd.update(id=nd["id"] + 1), "node ids must be sequential"),
    # a field that no rule reads, on each kind of object a node holds
    (CASE_4A, "closure", lambda nd: nd.update(note=1), "malformed node: unexpected field 'note'"),
    (CASE_4A, "closure", _set("justify", "k", 1), "malformed node: unexpected field 'k'"),
    (CASE_4A, "plausible1d", _set("claim", "bit", 1), "malformed node: unexpected field 'bit'"),
    (CASE_4A, "plausible1d", lambda nd: nd["claim"]["a"].update(blocks=[0] * 13),
     "malformed node: unexpected field 'blocks'"),
    (CASE_4A, "plausible1d", _set("justify", "pad", 0), "malformed node: unexpected field 'pad'"),
    (CASE_1, "plausible1d", _set("claim", "a", {"sigma": 0}),
     "malformed node: unexpected field 'a'"),
    (CASE_1, "negation", _set("justify", "blocks", _one_run(60, 11)),
     "malformed node: unexpected field 'blocks'"),
    (CASE_4A, "double_cyclicity", _set("justify", "m", 1), "malformed node: unexpected field 'm'"),
    (CASE_4A, "halving", _set("claim", "k", 1), "malformed node: unexpected field 'k'"),
    (CASE_4A, "halving", _set("justify", "shift", 0), "malformed node: unexpected field 'shift'"),
    (CASE_4A, "completion", _set("justify", "l1", [0] * 13),
     "malformed node: unexpected field 'l1'"),
    (CASE_4A, "boundedness", _set("justify", "k", 1), "malformed node: unexpected field 'k'"),
]


def _ids(rows) -> list:
    """tag-reason for each row; a repeat gets ' (n)' at its n-th time."""
    ids = [f"{e[1]}-{e[3]}" for e in rows]
    return [x if ids.index(x) == i else f"{x} ({ids[:i + 1].count(x)})"
            for i, x in enumerate(ids)]


@pytest.mark.parametrize("args,tag,edit,reason", FIELD_EDITS, ids=_ids(FIELD_EDITS))
def test_field_edit_gives_its_reason_at_its_node(args, tag, edit, reason):
    obj = json.loads(_text(args))
    i = _first(obj, tag)
    edit(obj["nodes"][i])
    assert _verdict(obj, ProofContext(*args).canonical_template()) == (False, i, reason)


_R4 = [4] * 12 + [3]

# the justification fields that the 2-D rules now compute from the claim and
# the context, each with the value an older generator wrote for it on the
# first node of its rule in the CASE_4A certificate
DROPPED_FIELDS = [
    ("double_cyclicity", "blocks", _R4),
    ("double_cyclicity", "k", 51),
    ("double_cyclicity", "shift", 0),
    ("halving", "m", 1),
    ("halving", "blocks", [5] * 12 + [7]),
    ("halving", "l", [8] * 12 + [6]),
    ("halving", "l1", _R4),
    ("halving", "l2", _R4),
    ("halving", "twin", False),
    ("halving", "pad", 0),
    ("completion", "m", 2),
    ("completion", "blocks", FINALE_A),
    ("completion", "l", [5] * 12 + [7]),
    ("completion", "twin", False),
    ("completion", "pad", 0),
    ("boundedness", "z1", 5),
    ("boundedness", "m", 6),
]


@pytest.mark.parametrize("tag,field,value", DROPPED_FIELDS,
                         ids=[f"{tag}-{field}" for tag, field, _ in DROPPED_FIELDS])
def test_dropped_field_is_unexpected_even_with_its_true_value(tag, field, value):
    """A 2-D node that still states a field its rule computes is refused at
    that node, though the stated value is the computed one."""
    obj = json.loads(_text(CASE_4A))
    i = _first(obj, tag)
    assert field not in obj["nodes"][i]["justify"]
    _set("justify", field, value)(obj["nodes"][i])
    assert _verdict(obj, ProofContext(*CASE_4A).canonical_template()) == (
        False, i, f"malformed node: unexpected field '{field}'")


@pytest.mark.parametrize("args,edit,reason", [
    (CASE_4A, lambda obj: obj.update(conclusion="tame_base"),
     "base-only conclusion requires b = 0"),
    (CASE_4A_B0, lambda obj: obj.update(conclusion="contradiction"),
     "contradiction needs b >= 1"),
    (CASE_4A, lambda obj: obj["context"].update(b=5),
     "pigeonhole interval has too few integers"),
    (CASE_4A, lambda obj: obj["nodes"].pop(), "pattern pair (3,4) is not covered"),
    # a closure node follows from earlier claims, so only a cut that drops
    # a plausible family leaves an index uncovered
    (CASE_4A_B0, lambda obj: obj["nodes"].__delitem__(slice(1, None)),
     "tameness coverage missing at 1"),
    (CASE_4A, lambda obj: obj.update(conclusion="done"), "unknown conclusion 'done'"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_conclusion_edit_gives_its_reason(args, edit, reason):
    obj = json.loads(_text(args))
    edit(obj)
    assert _verdict(obj, ProofContext(*args).canonical_template()) == (False, None, reason)


@pytest.mark.parametrize("args,pairs", [
    (CASE_4A, ProofContext(*CASE_1).canonical_template().pairs),
    (CASE_4A, ((build_family("exact", 1, 3), build_family("nae", 3)),
               (build_family("full", 2), build_family("full", 2)))),
    (CASE_1, ((build_family("exact", 2, 5), build_family("atmost", 3, 5)),)),
], ids=["another case", "two pairs", "no disequality"])
def test_template_that_does_not_match_the_context(args, pairs):
    cert = certificate_from_json(_text(args))
    result = verify_certificate(cert, Template(pairs))
    assert (result.ok, result.failed_node, result.reason) == (
        False, None, "template does not match the context")
    assert verify_certificate(cert, ProofContext(*args).canonical_template()).ok


@pytest.mark.parametrize("field,value,message", [
    ("p", 1, "p=1 is not prime"),
    ("case", "5", "unknown case '5'"),
    ("case", "x" * 1000, "unknown case 'xxx"),
    ("r", -1, "need r >= 0, s >= 1 and p >= 1"),
    ("exponent_preset", "fast", "unknown preset 'fast'"),
    ("exponent_preset", [], "malformed certificate: exponent_preset [] is not a string"),
    ("b", -1, "b must be >= 0"),
])
def test_context_that_is_refused(field, value, message):
    obj = json.loads(_text(CASE_4A_B0))
    obj["context"][field] = value
    with pytest.raises(CertificateError) as info:
        certificate_from_json(json.dumps(obj))
    assert str(info.value).startswith(message) and len(str(info.value)) < 100


# -- reasons no certificate of the canonical template reaches ---------------------

ONE_IN_THREE_TWICE = Template(((build_family("exact", 1, 3), build_family("exact", 1, 3)),))


def _u17_both_ways():
    """p = 7: [17, 17, 15] forces u_17 = 0, and [16, 16, 17] forces u_17 = 1."""
    ctx = ProofContext(*CASE_4A_B0)
    nodes = [Node(0, claim_absolute(17, 0),
                  {"tag": "plausible1d", "tuples": [[17, 17, 15]], "twin": False}, ()),
             Node(1, claim_absolute(17, 1),
                  {"tag": "plausible1d", "tuples": [[16, 16, 17]], "twin": False}, ())]
    return Certificate(ctx, tuple(nodes), "tame_base")


def _check(cert):
    result = verify_certificate(cert, ONE_IN_THREE_TWICE)
    return result.ok, result.failed_node, result.reason


def test_claims_each_sound_but_mutually_inconsistent():
    assert _check(_u17_both_ways()) == (False, 1, "claims are mutually inconsistent")


def test_constraint_with_no_survivor_under_its_facts():
    cert = _u17_both_ways()
    nodes = cert.nodes[:1] + (dataclasses.replace(cert.nodes[1], refs=(0,)),)
    assert _check(dataclasses.replace(cert, nodes=nodes)) == (
        False, 1, "no consistent assignment survives (inconsistent node)")


def test_closure_over_contradictory_facts():
    cert = _u17_both_ways()
    lemma = Node(2, claim_absolute(0, 0), {"tag": "closure"}, (0, 1))
    assert _check(dataclasses.replace(cert, nodes=cert.nodes + (lemma,))) == (
        False, 2, "referenced facts are contradictory")


@pytest.mark.parametrize("b, z21, z22, first, reason", [
    (2, 1, 2, 8, "finale rectangle is not near-threshold"),
    (3, -1, 1, 9, "pattern heights leave the pigeonhole interval"),
], ids=["far from the threshold", "negative height"])
def test_one_finale_node_at_larger_b(b, z21, z22, first, reason):
    """At b = 2 the pair (1, 2) passes every other finale check at p = 13,
    first height 8, but its rectangles are not near the threshold.  At
    b = 3, theta*p - 2b = -5/3 lies below the height -1, but the interval
    starts at 0 all the same."""
    ctx = ProofContext(1, 3, "4a", 13, b)
    zb1, zb2 = [first] * 6 + [z21] * 7, [first] * 6 + [z22] * 7
    node = Node(0, claim_distinct(rect_term(zb1), rect_term(zb2)),
                {"tag": "boundedness", "z21": z21, "z22": z22}, ())
    result = verify_certificate(Certificate(ctx, (node,), "contradiction"),
                                ctx.canonical_template())
    assert (result.ok, result.failed_node, result.reason) == (False, 0, reason)


def test_the_finale_node_edited_is_the_one_named():
    """The boundedness edits above act on this node, with these heights."""
    obj = json.loads(_text(CASE_4A))
    node = obj["nodes"][_first(obj, "boundedness")]
    assert node["justify"] == {"tag": "boundedness", "z21": 3, "z22": 4}
    assert (node["claim"]["a"]["blocks"], node["claim"]["b"]["blocks"]) == (FINALE_A, FINALE_B)


# -- reasons that quote the file stay short -----------------------------------------

LONG = "x" * 100_000


def _first_with(obj, test) -> int:
    return next(i for i, nd in enumerate(obj["nodes"]) if test(nd))


@pytest.mark.parametrize("edit,reason_start,args", [
    (lambda obj: obj["nodes"][0]["justify"].update(tag=LONG), "unknown justification 'xxx",
     CASE_4A_B0),
    (lambda obj: obj["nodes"][0]["claim"].update(kind=LONG),
     "malformed node: unknown claim kind 'xxx", CASE_4A_B0),
    # a case-4a chain at b = 0 states no bit
    (lambda obj: obj["nodes"][_first_with(obj, lambda nd: "bit" in nd["claim"])]["claim"]
     .update(bit=LONG), "malformed node: claim bit 'xxx", CASE_1),
    (lambda obj: obj["nodes"][_first_with(obj, lambda nd: nd["refs"])]["refs"]
     .__setitem__(0, LONG), "reference 'xxx", CASE_4A_B0),
    (lambda obj: obj["nodes"][0]["claim"]["a"].update(sigma=LONG),
     "malformed node: sigma index 'xxx", CASE_4A_B0),
    (lambda obj: obj["nodes"][0]["claim"]["a"].update(sigma=[[LONG]] * 3),
     "malformed node: sigma index [['xxx", CASE_4A_B0),
    (lambda obj: obj.update(conclusion=LONG), "unknown conclusion 'xxx", CASE_4A_B0),
    (lambda obj: obj["nodes"][0]["justify"].update({LONG: 0}),
     "malformed node: unexpected field 'xxx", CASE_4A_B0),
], ids=["tag", "kind", "bit", "refs", "sigma", "nested-sigma", "conclusion", "field"])
def test_reason_quoting_a_long_value_stays_short(edit, reason_start, args):
    """A 100,000-character value used to be quoted whole, so the reason
    (one stdout line of `pcsp verify`) grew with the file; the node that
    fails is the one a short value fails at."""
    obj = json.loads(_text(args))
    tmpl = ProofContext(*args).canonical_template()
    edit(obj)
    long_value = _verdict(obj, tmpl)
    text = json.dumps(obj).replace(LONG, "y")
    short_value = _verdict(json.loads(text), tmpl)
    assert long_value[:2] == short_value[:2] and long_value[0] is False
    assert long_value[2].startswith(reason_start) and len(long_value[2]) < 200, long_value
