package lint

// Allowances counts the //lint:allow annotations in pkg's files.
func Allowances(pkg *Package) int { return len(parseAllowances(pkg.Fset, pkg.Syntax)) }
