"""Recursive-descent parser for MiniC.

The grammar (informal)::

    program   := (global | function)*
    global    := type IDENT dims ('=' expr)? ';'
    function  := type IDENT '(' params ')' block
    param     := type '&'? IDENT ('[' ']')*
    block     := '{' stmt* '}'
    stmt      := decl ';' | if | for | while | 'return' expr? ';'
               | 'break' ';' | 'continue' ';' | assign ';' | call ';'
    assign    := lvalue ('='|'+='|'-='|'*='|'/='|'%=') expr
               | lvalue '++' | lvalue '--'

Expressions use C precedence for ``|| && == != < <= > >= + - * / %`` with
unary ``-``/``!`` and postfix calls/indexing.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.lang.ast_nodes import (
    ArrayLV,
    ArrayRef,
    Assign,
    BinOp,
    Break,
    Call,
    Continue,
    Expr,
    ExprStmt,
    FloatLit,
    For,
    Function,
    If,
    IntLit,
    LValue,
    Param,
    Program,
    Return,
    Stmt,
    UnaryOp,
    VarDecl,
    VarLV,
    VarRef,
    While,
    assign_ids,
)
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenType

# Binary operator precedence, higher binds tighter.
_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "==": 3,
    "!=": 3,
    "<": 4,
    "<=": 4,
    ">": 4,
    ">=": 4,
    "+": 5,
    "-": 5,
    "*": 6,
    "/": 6,
    "%": 6,
}

_ASSIGN_OPS = ("=", "+=", "-=", "*=", "/=", "%=")
_TYPES = ("int", "float", "void")


class _Parser:
    def __init__(self, source: str) -> None:
        self.tokens = tokenize(source)
        # The cursor never passes the EOF token and looks at most two
        # tokens ahead, so two more EOFs keep every peek in range.
        self.tokens += self.tokens[-1:] * 2
        self.pos = 0
        self.source = source

    # -- token helpers ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[self.pos + offset]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.type is not TokenType.EOF:
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        tok = self.tokens[self.pos]
        return tok.text == text and tok.type is not TokenType.EOF

    def accept(self, text: str) -> bool:
        if self.at(text):
            self.advance()
            return True
        return False

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text or tok.type is TokenType.EOF:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", line=tok.line)
        return self.advance()

    def expect_ident(self) -> Token:
        tok = self.peek()
        if tok.type is not TokenType.IDENT:
            raise ParseError(f"expected identifier, found {tok.text!r}", line=tok.line)
        return self.advance()

    # -- top level ----------------------------------------------------------

    def parse(self) -> Program:
        program = Program(source=self.source)
        while self.peek().type is not TokenType.EOF:
            tok = self.peek()
            if tok.text not in _TYPES:
                raise ParseError(
                    f"expected type at top level, found {tok.text!r}", line=tok.line
                )
            # Lookahead: "type ident (" is a function, otherwise a global.
            after_name = self.peek(2)
            if after_name.text == "(":
                program.functions.append(self.parse_function())
            else:
                program.globals.append(self.parse_var_decl(allow_init=True))
                self.expect(";")
        return assign_ids(program)

    def parse_function(self) -> Function:
        type_tok = self.advance()
        name_tok = self.expect_ident()
        self.expect("(")
        params: list[Param] = []
        if not self.at(")"):
            while True:
                params.append(self.parse_param())
                if not self.accept(","):
                    break
        self.expect(")")
        body = self.parse_block()
        return Function(
            ret_type=type_tok.text,
            name=name_tok.text,
            params=params,
            body=body,
            line=type_tok.line,
        )

    def parse_param(self) -> Param:
        type_tok = self.peek()
        if type_tok.text not in ("int", "float"):
            raise ParseError(
                f"expected parameter type, found {type_tok.text!r}", line=type_tok.line
            )
        self.advance()
        by_ref = self.accept("&")
        name_tok = self.expect_ident()
        rank = 0
        while self.accept("["):
            self.expect("]")
            rank += 1
        if by_ref and rank:
            raise ParseError("array parameters are implicitly by reference", line=name_tok.line)
        return Param(
            type=type_tok.text,
            name=name_tok.text,
            array_rank=rank,
            by_ref=by_ref,
            line=name_tok.line,
        )

    # -- statements ---------------------------------------------------------

    def parse_block(self) -> list[Stmt]:
        self.expect("{")
        body: list[Stmt] = []
        while not self.at("}"):
            if self.peek().type is TokenType.EOF:
                raise ParseError("unterminated block", line=self.peek().line)
            body.append(self.parse_stmt())
        self.expect("}")
        return body

    def parse_stmt_or_block(self) -> list[Stmt]:
        if self.at("{"):
            return self.parse_block()
        return [self.parse_stmt()]

    def parse_stmt(self) -> Stmt:
        tok = self.peek()
        if tok.text in ("int", "float"):
            decl = self.parse_var_decl(allow_init=True)
            self.expect(";")
            return decl
        if tok.text == "if":
            return self.parse_if()
        if tok.text == "for":
            return self.parse_for()
        if tok.text == "while":
            return self.parse_while()
        if tok.text == "return":
            self.advance()
            value = None if self.at(";") else self.parse_expr()
            self.expect(";")
            return Return(value=value, line=tok.line)
        if tok.text == "break":
            self.advance()
            self.expect(";")
            return Break(line=tok.line)
        if tok.text == "continue":
            self.advance()
            self.expect(";")
            return Continue(line=tok.line)
        stmt = self.parse_assign_or_call()
        self.expect(";")
        return stmt

    def parse_var_decl(self, allow_init: bool) -> VarDecl:
        type_tok = self.advance()
        if type_tok.text not in ("int", "float"):
            raise ParseError(f"expected type, found {type_tok.text!r}", line=type_tok.line)
        name_tok = self.expect_ident()
        dims: list[Expr] = []
        while self.accept("["):
            dims.append(self.parse_expr())
            self.expect("]")
        init: Expr | None = None
        if self.accept("="):
            if not allow_init:
                raise ParseError("initializer not allowed here", line=name_tok.line)
            if dims:
                raise ParseError("array declarations cannot have initializers", line=name_tok.line)
            init = self.parse_expr()
        return VarDecl(
            type=type_tok.text, name=name_tok.text, dims=dims, init=init, line=type_tok.line
        )

    def parse_if(self) -> If:
        tok = self.expect("if")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        then_body = self.parse_stmt_or_block()
        else_body: list[Stmt] = []
        if self.accept("else"):
            if self.at("if"):
                else_body = [self.parse_if()]
            else:
                else_body = self.parse_stmt_or_block()
        return If(cond=cond, then_body=then_body, else_body=else_body, line=tok.line)

    def parse_for(self) -> For:
        tok = self.expect("for")
        self.expect("(")
        init: Assign | VarDecl | None = None
        if not self.at(";"):
            if self.peek().text in ("int", "float"):
                init = self.parse_var_decl(allow_init=True)
            else:
                init = self._parse_assign_clause()
        self.expect(";")
        cond: Expr | None = None
        if not self.at(";"):
            cond = self.parse_expr()
        self.expect(";")
        step: Assign | None = None
        if not self.at(")"):
            step = self._parse_assign_clause()
        self.expect(")")
        body = self.parse_stmt_or_block()
        return For(init=init, cond=cond, step=step, body=body, line=tok.line)

    def parse_while(self) -> While:
        tok = self.expect("while")
        self.expect("(")
        cond = self.parse_expr()
        self.expect(")")
        body = self.parse_stmt_or_block()
        return While(cond=cond, body=body, line=tok.line)

    def _parse_assign_clause(self) -> Assign:
        stmt = self.parse_assign_or_call()
        if not isinstance(stmt, Assign):
            raise ParseError("expected assignment", line=stmt.line)
        return stmt

    def parse_assign_or_call(self) -> Assign | ExprStmt:
        tok = self.peek()
        if tok.type is not TokenType.IDENT:
            raise ParseError(f"expected statement, found {tok.text!r}", line=tok.line)
        # Call statement: ident '(' ... but not followed by assignment.
        if self.peek(1).text == "(":
            expr = self.parse_expr()
            return ExprStmt(expr=expr, line=tok.line)
        lvalue = self.parse_lvalue()
        op_tok = self.peek()
        if op_tok.text in ("++", "--"):
            self.advance()
            one = IntLit(1, line=op_tok.line)
            return Assign(
                target=lvalue,
                op="+=" if op_tok.text == "++" else "-=",
                value=one,
                line=tok.line,
            )
        if op_tok.text not in _ASSIGN_OPS:
            raise ParseError(
                f"expected assignment operator, found {op_tok.text!r}", line=op_tok.line
            )
        self.advance()
        value = self.parse_expr()
        return Assign(target=lvalue, op=op_tok.text, value=value, line=tok.line)

    def parse_lvalue(self) -> LValue:
        name_tok = self.expect_ident()
        if self.at("["):
            indices: list[Expr] = []
            while self.accept("["):
                indices.append(self.parse_expr())
                self.expect("]")
            return ArrayLV(name=name_tok.text, indices=indices, line=name_tok.line)
        return VarLV(name=name_tok.text, line=name_tok.line)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> Expr:
        return self.parse_binary(1)

    def parse_binary(self, min_prec: int) -> Expr:
        left = self.parse_unary()
        while True:
            tok = self.peek()
            prec = _PRECEDENCE.get(tok.text, 0) if tok.type is TokenType.OP else 0
            if prec < min_prec or prec == 0:
                return left
            self.advance()
            right = self.parse_binary(prec + 1)
            left = BinOp(op=tok.text, left=left, right=right, line=tok.line)

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.text in ("-", "!") and tok.type is TokenType.OP:
            self.advance()
            operand = self.parse_unary()
            return UnaryOp(op=tok.text, operand=operand, line=tok.line)
        if tok.text == "+" and tok.type is TokenType.OP:
            self.advance()
            return self.parse_unary()
        return self.parse_postfix()

    def parse_postfix(self) -> Expr:
        tok = self.peek()
        if tok.text == "(":
            self.advance()
            inner = self.parse_expr()
            self.expect(")")
            return inner
        if tok.type is TokenType.INT_LIT:
            self.advance()
            return IntLit(int(tok.text), line=tok.line)
        if tok.type is TokenType.FLOAT_LIT:
            self.advance()
            return FloatLit(float(tok.text), line=tok.line)
        if tok.type is TokenType.IDENT:
            self.advance()
            if self.at("("):
                self.advance()
                args: list[Expr] = []
                if not self.at(")"):
                    while True:
                        args.append(self.parse_expr())
                        if not self.accept(","):
                            break
                self.expect(")")
                return Call(name=tok.text, args=args, line=tok.line)
            if self.at("["):
                indices: list[Expr] = []
                while self.accept("["):
                    indices.append(self.parse_expr())
                    self.expect("]")
                return ArrayRef(name=tok.text, indices=indices, line=tok.line)
            return VarRef(name=tok.text, line=tok.line)
        raise ParseError(f"unexpected token {tok.text!r} in expression", line=tok.line)


def parse_program(source: str) -> Program:
    """Parse MiniC *source* into a :class:`Program` with ids assigned."""
    return _Parser(source).parse()
