"""The annotation applier (paper Figure 10, "Eclipse Applier").

Walks the program's ASTs and attaches the inferred ``@Perm`` (and state
test) annotations to each method declaration, then pretty-prints the
annotated source.  Existing inferred annotations are replaced; declared
API annotations are preserved unless ``replace`` is set.
"""

from repro.java import ast
from repro.java.pretty import pretty_print
from repro.permissions.spec import SPEC_ANNOTATION_NAMES


def annotation_nodes_for_spec(spec):
    """Render a MethodSpec as AST annotation nodes."""
    nodes = []
    for name, arguments in spec.to_annotations():
        nodes.append(ast.Annotation(name=name, arguments=dict(arguments)))
    return nodes


def apply_spec_to_method(method_decl, spec, replace=False):
    """Attach ``spec`` to a method declaration in place.

    Returns True when the method's annotations changed.
    """
    existing = [
        annotation
        for annotation in method_decl.annotations
        if annotation.name in SPEC_ANNOTATION_NAMES
        or annotation.name in ("TrueIndicates", "FalseIndicates")
    ]
    if existing and not replace:
        return False
    kept = [
        annotation
        for annotation in method_decl.annotations
        if annotation not in existing
    ]
    new_nodes = annotation_nodes_for_spec(spec)
    if not new_nodes:
        if existing and replace:
            method_decl.annotations = kept
            return True
        return False
    method_decl.annotations = kept + new_nodes
    return True


def apply_specs(program, specs, replace=False):
    """Apply inferred specs across the program; returns change count.

    Edited units no longer match the content digests the analysis cache
    stored with them, so a change drops those digests."""
    changed = 0
    for method_ref, spec in specs.items():
        if spec.is_empty:
            continue
        if apply_spec_to_method(method_ref.method_decl, spec, replace=replace):
            changed += 1
    if changed:
        for unit in program.units:
            unit.digests = None
    return changed


def render_annotated_sources(program):
    """Pretty-print every compilation unit after annotation application."""
    return [pretty_print(unit) for unit in program.units]
