"""Java-subset frontend: lexer, parser, AST, symbol resolution.

This package substitutes for the Eclipse JDT frontend used by the paper's
implementation.  It handles the Java subset exercised by the paper's
programs: classes, interfaces, fields, methods, annotations (``@Perm``,
``@TrueIndicates``, ...), generics-lite type arguments, and the statement
and expression forms that appear in iterator-style client code.
"""

from repro.java.errors import JavaSyntaxError, LexError
from repro.java.lexer import tokenize
from repro.java.parser import Parser, parse_compilation_unit, parse_program
from repro.java.pretty import pretty_print
from repro.java.symbols import Program, resolve_program

__all__ = [
    "JavaSyntaxError",
    "LexError",
    "tokenize",
    "Parser",
    "parse_compilation_unit",
    "parse_program",
    "pretty_print",
    "Program",
    "resolve_program",
]
