package lint

import (
	"fmt"
	"go/ast"
	"go/types"
)

// batchAlias guards the batched TFHE entry points (BinaryBatch,
// BootstrapBatch, BootstrapLUTBatch) against operand aliasing. The batch
// kernels interleave their per-lane work — every lane's accumulator is
// programmed, then the shared key-index sweep rotates them all, then each
// is extracted and key-switched — so writing dst[i] while src[j] still
// points at the same sample corrupts lanes that a loop of scalar calls
// would have handled correctly.
// The scalar path tolerates dst == a (it reads operands before writing);
// the batched path must not, and the kernels only check for nil, not for
// aliasing.
//
// The check is conservative and purely structural: two ciphertext-slice
// arguments (slices of pointers) that derive from the same variable or
// field — directly or through slicing/indexing — may alias and are
// reported. Distinct variables are assumed disjoint, matching how every
// call site in the executors is built (separate kinds/outs/avs/bvs
// staging slices).
type batchAlias struct{}

func (*batchAlias) Name() string { return "batch-alias" }
func (*batchAlias) Doc() string {
	return "batched TFHE call passes ciphertext slices sharing a backing variable"
}

// Match applies everywhere: batch entry points are exported and any layer
// may stage a batch.
func (*batchAlias) Match(string) bool { return true }

// batchMethods are the batched entry points declared under internal/tfhe.
var batchMethods = map[string]bool{
	"BinaryBatch":       true,
	"BootstrapBatch":    true,
	"BootstrapLUTBatch": true,
}

func (a *batchAlias) Check(m *Module, pkg *Package) []Finding {
	var findings []Finding
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || !batchMethods[sel.Sel.Name] {
				return true
			}
			if !typeFromPackage(pkg.Info.TypeOf(sel.X), "internal/tfhe") {
				return true
			}
			findings = append(findings, a.checkCall(m, pkg, call, sel.Sel.Name)...)
			return true
		})
	}
	return findings
}

// checkCall compares every pair of ciphertext-slice arguments of one
// batched call and reports pairs rooted in the same object.
func (a *batchAlias) checkCall(m *Module, pkg *Package, call *ast.CallExpr, method string) []Finding {
	type sliceArg struct {
		pos  int
		root types.Object
	}
	var args []sliceArg
	for i, arg := range call.Args {
		if !isPointerSlice(pkg.Info.TypeOf(arg)) {
			continue
		}
		if root := sliceRoot(pkg, arg); root != nil {
			args = append(args, sliceArg{pos: i, root: root})
		}
	}
	var findings []Finding
	for i := 0; i < len(args); i++ {
		for j := i + 1; j < len(args); j++ {
			if args[i].root != args[j].root {
				continue
			}
			findings = append(findings, Finding{
				Analyzer: a.Name(),
				Pos:      m.Fset.Position(call.Args[args[j].pos].Pos()),
				Message: fmt.Sprintf(
					"%s arguments %d and %d may alias: both derive from %s — batched kernels interleave lanes and need disjoint operand/output slices",
					method, args[i].pos, args[j].pos, args[i].root.Name()),
			})
		}
	}
	return findings
}

// isPointerSlice reports whether t is a slice of pointers — the shape of
// every ciphertext batch ([]*lwe.Sample, []*gate.Ciphertext, ...).
func isPointerSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	_, ok = s.Elem().Underlying().(*types.Pointer)
	return ok
}

// sliceRoot resolves a batch argument to the object backing it: slicing
// and indexing are unwrapped (outs[lo:hi] roots at outs), then a plain
// identifier resolves to its variable and a selector to its field. Other
// shapes (fresh composite literals, call results) root nowhere and are
// assumed disjoint.
func sliceRoot(pkg *Package, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.Ident:
			if v, ok := pkg.Info.ObjectOf(x).(*types.Var); ok {
				return v
			}
			return nil
		case *ast.SelectorExpr:
			if selection, ok := pkg.Info.Selections[x]; ok {
				return selection.Obj()
			}
			if v, ok := pkg.Info.ObjectOf(x.Sel).(*types.Var); ok {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
