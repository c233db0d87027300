package script

// The AST node types. Statements and expressions are separate
// interfaces so the parser's shape mirrors the grammar.

// Stmt is a statement node.
type Stmt interface{ stmtNode() }

// Expr is an expression node.
type Expr interface{ exprNode() }

// Program is a parsed script.
type Program struct {
	Body []Stmt
}

// VarStmt declares a variable with an optional initializer.
type VarStmt struct {
	Name string
	Init Expr // nil for bare declarations
	Line int
}

// VarListStmt declares several variables in the current scope
// ("var a = 1, b = 2;").
type VarListStmt struct {
	Decls []*VarStmt
	Line  int
}

// ExprStmt evaluates an expression for its effects.
type ExprStmt struct {
	X    Expr
	Line int
}

// IfStmt is if/else.
type IfStmt struct {
	Cond Expr
	Then []Stmt
	Else []Stmt // nil when absent
	Line int
}

// WhileStmt is a while loop.
type WhileStmt struct {
	Cond Expr
	Body []Stmt
	Line int
}

// ForStmt is a C-style for loop; any of Init/Cond/Post may be nil.
type ForStmt struct {
	Init Stmt
	Cond Expr
	Post Stmt
	Body []Stmt
	Line int
}

// ReturnStmt returns from the enclosing function.
type ReturnStmt struct {
	X    Expr // nil for bare return
	Line int
}

// BreakStmt exits the innermost loop.
type BreakStmt struct{ Line int }

// ContinueStmt continues the innermost loop.
type ContinueStmt struct{ Line int }

// BlockStmt is a braced statement list.
type BlockStmt struct {
	Body []Stmt
	Line int
}

// FuncDeclStmt is a named function declaration.
type FuncDeclStmt struct {
	Name string
	Fn   *FuncLit
	Line int
}

func (*VarStmt) stmtNode()      {}
func (*VarListStmt) stmtNode()  {}
func (*ExprStmt) stmtNode()     {}
func (*IfStmt) stmtNode()       {}
func (*WhileStmt) stmtNode()    {}
func (*ForStmt) stmtNode()      {}
func (*ReturnStmt) stmtNode()   {}
func (*BreakStmt) stmtNode()    {}
func (*ContinueStmt) stmtNode() {}
func (*BlockStmt) stmtNode()    {}
func (*FuncDeclStmt) stmtNode() {}

// litValue is an expression of an already-computed value: a number or
// string literal, which the parser boxes once into the program
// (programs are cached and never written, so every run shares the
// boxed value), or an operand of a desugared compound assignment.
type litValue struct{ v Value }

// BoolLit is true/false.
type BoolLit struct{ Value bool }

// NullLit is null.
type NullLit struct{}

// Ident references a variable.
type Ident struct {
	Name string
	Line int
}

// BinaryExpr applies a binary operator.
type BinaryExpr struct {
	Op   string
	L, R Expr
	Line int
}

// UnaryExpr applies a prefix operator (!, -, typeof).
type UnaryExpr struct {
	Op   string
	X    Expr
	Line int
}

// AssignExpr assigns to an identifier, member, or index target. Op is
// "=", "+=", "-=", "*=", or "/=".
type AssignExpr struct {
	Op     string
	Target Expr // Ident, MemberExpr, or IndexExpr
	Value  Expr
	Line   int
}

// CondExpr is the ternary ?: operator.
type CondExpr struct {
	Cond, Then, Else Expr
	Line             int
}

// CallExpr calls a function or method.
type CallExpr struct {
	Fn   Expr
	Args []Expr
	Line int
}

// NewExpr instantiates via a constructor function.
type NewExpr struct {
	Fn   Expr
	Args []Expr
	Line int
}

// MemberExpr accesses a named property (a.b).
type MemberExpr struct {
	X    Expr
	Name string
	Line int
}

// IndexExpr accesses a computed property (a[i]).
type IndexExpr struct {
	X, Index Expr
	Line     int
}

// ObjectLit is {k: v, ...}.
type ObjectLit struct {
	Keys   []string
	Values []Expr
	Line   int
}

// ArrayLit is [v, ...].
type ArrayLit struct {
	Elems []Expr
	Line  int
}

// FuncLit is a function expression.
type FuncLit struct {
	Params []string
	Body   []Stmt
	Line   int
}

func (*litValue) exprNode()   {}
func (*BoolLit) exprNode()    {}
func (*NullLit) exprNode()    {}
func (*Ident) exprNode()      {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}
func (*AssignExpr) exprNode() {}
func (*CondExpr) exprNode()   {}
func (*CallExpr) exprNode()   {}
func (*NewExpr) exprNode()    {}
func (*MemberExpr) exprNode() {}
func (*IndexExpr) exprNode()  {}
func (*ObjectLit) exprNode()  {}
func (*ArrayLit) exprNode()   {}
func (*FuncLit) exprNode()    {}
