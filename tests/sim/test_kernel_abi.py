"""The C kernel's ABI cannot drift: every exported function defined in
``npsim._KERNEL_SOURCE`` is declared in ``npsim._KERNEL_CDEF`` with the
identical return type and parameter list, and nothing else is
declared.  cffi's ABI mode trusts the cdef blindly, so a mismatch
would be silent memory corruption rather than an error."""

import re

from repro.sim import npsim

#: ``<return type> <name>(<params>)`` followed by a body or a ``;``.
_FUNCTION = re.compile(
    r"^(?P<ret>[A-Za-z_][\w \t\*]*?)[ \t\*]*\b(?P<name>\w+)\s*"
    r"\((?P<params>[^)]*)\)\s*(?P<end>[{;])", re.MULTILINE)


def _normalize(text):
    return " ".join(text.replace("*", " * ").split())


def _functions(text, end):
    """``{name: (return type, parameter list)}`` of the non-``static``
    functions in ``text`` ending in ``end`` (``{`` definitions, ``;``
    declarations), whitespace-normalized."""
    found = {}
    for match in _FUNCTION.finditer(text):
        ret = match.group("ret")
        if match.group("end") != end or ret.split()[0] == "static":
            continue
        head = text[match.start():match.start("name")]
        found[match.group("name")] = (_normalize(head),
                                      _normalize(match.group("params")))
    return found


def _mismatches(source, cdef):
    defined = _functions(source, "{")
    declared = _functions(cdef, ";")
    problems = []
    for name in sorted(set(defined) | set(declared)):
        if name not in declared:
            problems.append(f"{name}: defined but not in the cdef")
        elif name not in defined:
            problems.append(f"{name}: declared but never defined")
        elif defined[name] != declared[name]:
            problems.append(f"{name}: {defined[name]} != {declared[name]}")
    return problems


def test_entry_points_match_the_cdef():
    defined = _functions(npsim._KERNEL_SOURCE, "{")
    assert set(defined) == {"repro_run_pass", "repro_run_lane_pass",
                            "repro_run_good_lane_pass"}
    assert _mismatches(npsim._KERNEL_SOURCE, npsim._KERNEL_CDEF) == []


def test_struct_types_are_shared():
    """The circuit and plan structs are declared once, in the cdef, and
    the compiled source uses that very text."""
    for struct in ("repro_circuit", "repro_plan"):
        assert npsim._KERNEL_CDEF.count(f"}} {struct};") == 1
    assert npsim._KERNEL_SOURCE.count("typedef struct") == \
        npsim._KERNEL_CDEF.count("typedef struct")
    assert npsim._KERNEL_CDEF in npsim._KERNEL_SOURCE


def test_reordered_parameter_is_caught():
    """Swapping two same-typed parameters on either side compiles
    cleanly -- only the check above can see it."""
    swapped = npsim._KERNEL_CDEF.replace(
        "int observe_po, int scan_out,", "int scan_out, int observe_po,")
    assert swapped != npsim._KERNEL_CDEF
    assert any(p.startswith("repro_run_pass:")
               for p in _mismatches(npsim._KERNEL_SOURCE, swapped))
    body = npsim._KERNEL_SOURCE[len(npsim._KERNEL_CDEF):]
    assert _mismatches(npsim._KERNEL_CDEF + body.replace(
        "u64* ns_zero, u64* ns_one, u64* caught, long* frames_done)",
        "u64* ns_one, u64* ns_zero, u64* caught, long* frames_done)"),
        npsim._KERNEL_CDEF)
