// SQL write path: CREATE TABLE / INSERT / UPDATE / DELETE over the
// wire. Two targets, two write paths:
//
//   - The served table (Config.Schema/Table/Column) is the tenant's
//     facade column. DML on it lowers to Column.Insert/Update/Delete —
//     so SQL writes flow through the MVCC delta store and, when
//     durability is on, the group committer: a 200 means the write is
//     in the WAL and survives SIGKILL.
//   - CREATE TABLE-d tables live in the tenant's private MemCatalog,
//     outside the WAL, so a durable server refuses CREATE TABLE.
//     DML on them compiles to MAL write plans (sql.GenerateDML): the
//     predicate evaluates through the Figure-1 delta-bat merge, and the
//     qualifying oids feed sql.updateRows/deleteRows. SELECTs on those
//     tables execute the generated read plan against the same catalog,
//     rejoining columns positionally with algebra.join.
//
// Write statements are never plan-cached: constants are part of the
// write, so one fingerprint does not mean one executable plan, and a
// stale cached write would be a correctness bug rather than a slow
// query. Their fingerprints are still computed for observability.
package server

import (
	"errors"
	"fmt"
	"math"

	"selforg/internal/bat"
	"selforg/internal/mal"
	"selforg/internal/opt"
	"selforg/internal/sql"
)

// WriteError wraps a write rejected for a client-side reason — a value
// outside the column extent, a row/column arity mismatch, a write to a
// missing table. The HTTP layer maps it (like *CompileError) to 400.
type WriteError struct{ Err error }

func (e *WriteError) Error() string { return e.Err.Error() }
func (e *WriteError) Unwrap() error { return e.Err }

// execWrite parses and executes one write statement for a tenant.
func (s *Server) execWrite(name, src string) (*Result, error) {
	stmt, err := sql.ParseStmt(src)
	if err != nil {
		return nil, err
	}
	t, err := s.tenantEntry(name)
	if err != nil {
		return nil, err
	}
	res := &Result{Tenant: t.name}
	if n, err := sql.Normalize(src); err == nil {
		res.Fingerprint = n.Fingerprint
	}
	switch st := stmt.(type) {
	case *sql.CreateTable:
		res.Op = "create"
		if st.Schema == s.cfg.Schema && st.Table == s.cfg.Table {
			return nil, &CompileError{Err: fmt.Errorf("table %s.%s already exists", st.Schema, st.Table)}
		}
		if s.cfg.Options.Durability.Dir != "" {
			// Created tables live in the tenant's in-memory catalog, outside
			// the WAL: acknowledging one would promise writes a restart loses.
			return nil, &CompileError{Err: errors.New("CREATE TABLE is refused on a durable server: created tables are not durable yet")}
		}
		t.cmu.Lock()
		err := t.cat.CreateTable(st.Schema, st.Table, st.Columns)
		t.cmu.Unlock()
		if err != nil {
			return nil, &CompileError{Err: err}
		}
		return res, nil
	case *sql.Insert:
		if st.Schema == s.cfg.Schema && st.Table == s.cfg.Table {
			return s.facadeInsert(t, st, res)
		}
		return s.tenantWrite(t, st, res, "insert")
	case *sql.Update:
		if st.Schema == s.cfg.Schema && st.Table == s.cfg.Table {
			return s.facadeUpdate(t, st, res)
		}
		return s.tenantWrite(t, st, res, "update")
	case *sql.Delete:
		if st.Schema == s.cfg.Schema && st.Table == s.cfg.Table {
			return s.facadeDelete(t, st, res)
		}
		return s.tenantWrite(t, st, res, "delete")
	default:
		// Unreachable: Exec routes SELECT through compile, and ParseStmt
		// has no other statement kinds.
		return nil, &CompileError{Err: fmt.Errorf("unsupported statement %T", stmt)}
	}
}

// lngValue checks a SQL numeric literal is a representable bigint.
func lngValue(f float64) (int64, error) {
	if f != math.Trunc(f) || f < math.MinInt64 || f >= math.MaxInt64 {
		return 0, fmt.Errorf("value %g is not a bigint", f)
	}
	return int64(f), nil
}

// facadeColumnRef validates a column reference against the served
// single-column schema.
func (s *Server) facadeColumnRef(col string) error {
	if col != s.cfg.Column {
		return &CompileError{Err: fmt.Errorf("unknown column %s.%s.%s",
			s.cfg.Schema, s.cfg.Table, col)}
	}
	return nil
}

// facadeInsert lowers INSERT INTO <served table> onto Column.Insert,
// one facade write per row — each rides the group committer when the
// tenant is durable, so the 200 carries the WAL's guarantee.
func (s *Server) facadeInsert(t *tenant, st *sql.Insert, res *Result) (*Result, error) {
	res.Op = "insert"
	for _, col := range st.Columns {
		if err := s.facadeColumnRef(col); err != nil {
			return nil, err
		}
	}
	vals := make([]int64, 0, len(st.Rows))
	for _, row := range st.Rows {
		if len(row) != 1 {
			return nil, &CompileError{Err: fmt.Errorf("table %s.%s has 1 column, row has %d values",
				s.cfg.Schema, s.cfg.Table, len(row))}
		}
		v, err := lngValue(row[0])
		if err != nil {
			return nil, &CompileError{Err: err}
		}
		vals = append(vals, v)
	}
	for _, v := range vals {
		stt, err := t.col.Insert(v)
		if err != nil {
			return res, &WriteError{Err: err}
		}
		res.Stats.Add(stt)
		res.Count++
	}
	return res, nil
}

// facadeUpdate lowers UPDATE <served table> SET v = new WHERE v = old
// onto Column.Update (one visible occurrence, cross-shard atomic).
func (s *Server) facadeUpdate(t *tenant, st *sql.Update, res *Result) (*Result, error) {
	res.Op = "update"
	if err := s.facadeColumnRef(st.SetCol); err != nil {
		return nil, err
	}
	if err := s.facadeColumnRef(st.PredCol); err != nil {
		return nil, err
	}
	old, err := lngValue(st.PredVal)
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	nv, err := lngValue(st.SetVal)
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	hit, stt, err := t.col.Update(old, nv)
	if err != nil {
		return nil, err
	}
	res.Stats = stt
	if hit {
		res.Count = 1
	}
	return res, nil
}

// facadeDelete lowers DELETE FROM <served table> WHERE v = x onto
// Column.Delete.
func (s *Server) facadeDelete(t *tenant, st *sql.Delete, res *Result) (*Result, error) {
	res.Op = "delete"
	if err := s.facadeColumnRef(st.PredCol); err != nil {
		return nil, err
	}
	v, err := lngValue(st.PredVal)
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	hit, stt, err := t.col.Delete(v)
	if err != nil {
		return nil, err
	}
	res.Stats = stt
	if hit {
		res.Count = 1
	}
	return res, nil
}

// tenantWrite compiles a DML statement against the tenant's private
// catalog and executes the MAL write plan under the catalog write lock.
func (s *Server) tenantWrite(t *tenant, stmt sql.Stmt, res *Result, op string) (*Result, error) {
	res.Op = op
	t.cmu.Lock()
	defer t.cmu.Unlock()
	prog, err := sql.GenerateDML(stmt, t.cat)
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	if err := opt.Default().Optimize(prog, &opt.Context{Catalog: t.cat}); err != nil {
		return nil, &CompileError{Err: err}
	}
	in := mal.NewInterp(t.cat, nil)
	var args []any
	switch st := stmt.(type) {
	case *sql.Update:
		args = []any{st.PredVal, st.SetVal}
	case *sql.Delete:
		args = []any{st.PredVal}
	}
	ctx, err := in.Run(prog, args...)
	if err != nil {
		// Every reachable run failure of this statement class is a
		// schema/data mismatch (missing column in an INSERT list, type
		// mismatch) — the client's fault.
		return nil, &WriteError{Err: err}
	}
	res.Count = ctx.Affected
	return res, nil
}

// execTenantSelect compiles and runs a SELECT against the tenant's
// private catalog (uncached): the full §2 pipeline per call, with
// algebra.join rejoining projected columns positionally.
func (s *Server) execTenantSelect(name string, q *sql.Query, src string) (*Result, error) {
	t, err := s.tenantEntry(name)
	if err != nil {
		return nil, err
	}
	res := &Result{Tenant: t.name}
	if n, err := sql.Normalize(src); err == nil {
		res.Fingerprint = n.Fingerprint
	}
	t.cmu.RLock()
	defer t.cmu.RUnlock()
	prog, err := sql.Generate(q, t.cat)
	if err != nil {
		return nil, &CompileError{Err: err}
	}
	if err := opt.Default().Optimize(prog, &opt.Context{Catalog: t.cat}); err != nil {
		return nil, &CompileError{Err: err}
	}
	res.Plan = prog.String()
	in := mal.NewInterp(t.cat, nil)
	ctx, err := in.Run(prog, q.Lo, q.Hi)
	if err != nil {
		return nil, err
	}
	switch q.Aggregate {
	case "count":
		res.Op = "count"
		res.Count = aggrValue(prog, ctx)
	case "sum":
		res.Op = "sum"
		res.Sum = aggrValue(prog, ctx)
	default:
		res.Op = "select"
		if len(ctx.Results) == 0 {
			return nil, fmt.Errorf("plan exported no result set")
		}
		rs := ctx.Results[len(ctx.Results)-1]
		res.Count = int64(rs.NumRows())
		rows := rs.NumRows()
		if rows > s.cfg.MaxRows {
			rows, res.Truncated = s.cfg.MaxRows, true
		}
		res.Columns = make([]string, rs.NumCols())
		for c := 0; c < rs.NumCols(); c++ {
			res.Columns[c] = rs.ColumnName(c)
		}
		res.Tuples = make([][]int64, rows)
		for r := 0; r < rows; r++ {
			tuple := make([]int64, rs.NumCols())
			for c := 0; c < rs.NumCols(); c++ {
				tuple[c] = lngOf(rs.Column(c).Tail.Get(r))
			}
			res.Tuples[r] = tuple
		}
		if rs.NumCols() == 1 {
			flat := make([]int64, rows)
			for r := 0; r < rows; r++ {
				flat[r] = res.Tuples[r][0]
			}
			if rows > 0 {
				res.Rows = NewRows(flat)
			}
		}
	}
	return res, nil
}

// aggrValue pulls the aggregate operator's result out of the finished
// context: the generated plan binds it to the aggr.* call's target.
func aggrValue(prog *mal.Program, ctx *mal.Context) int64 {
	for i := range prog.Instrs {
		e := prog.Instrs[i].Expr
		if e != nil && e.IsCall() && e.Module == "aggr" {
			if v, ok := ctx.Get(prog.Instrs[i].Target); ok {
				switch v := v.(type) {
				case int64:
					return v
				case float64:
					return int64(v)
				case bat.Value:
					return lngOf(v)
				}
			}
		}
	}
	return 0
}

// lngOf renders a bat value as the wire's bigint.
func lngOf(v bat.Value) int64 {
	switch v.K {
	case bat.KLng:
		return v.AsLng()
	case bat.KDbl:
		return int64(v.AsDbl())
	case bat.KOid:
		return int64(v.AsOid())
	default:
		return 0
	}
}
