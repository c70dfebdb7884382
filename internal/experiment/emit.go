package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// column is one sweep column of WriteCSV and WriteJSON: its name, and its
// value for a result — nil where the result has none, which is an empty CSV
// cell and an absent JSON key. A jsonOnly column (a list) has no CSV cell.
type column struct {
	name     string
	value    func(r *Result) any
	jsonOnly bool
}

// ifRef returns v for a result that carries a reference (only the live
// estimator computes one), else nil: absence is distinct from a measured
// zero.
func ifRef(r *Result, v any) any {
	if !r.HasReference {
		return nil
	}
	return v
}

// columns is the one column set of the sweep emitters, for every estimator:
// a column an estimator does not measure reads zero (or nothing, for the
// references). Wall-clock fields are deliberately absent: the CSV and JSON
// emitters are byte-deterministic for a fixed sweep and estimator, regardless
// of runner worker count.
var columns = []column{
	{name: "index", value: func(r *Result) any { return r.Point.Index }},
	{name: "series", value: func(r *Result) any { return r.Point.Series }},
	{name: "x", value: func(r *Result) any { return r.Point.X }},
	{name: "scheme", value: func(r *Result) any { return r.Plan.Scheme.String() }},
	{name: "k", value: func(r *Result) any { return r.Plan.K }},
	{name: "l", value: func(r *Result) any { return r.Plan.L }},
	{name: "sharen", value: func(r *Result) any { return r.Plan.ShareN }},
	{name: "sharem", jsonOnly: true, value: func(r *Result) any {
		if len(r.Plan.ShareM) == 0 {
			return nil
		}
		return r.Plan.ShareM
	}},
	{name: "replicas", value: func(r *Result) any { return r.Point.Replicas }},
	{name: "network", value: func(r *Result) any { return r.Point.Network }},
	{name: "budget", value: func(r *Result) any { return r.Point.Budget }},
	{name: "p", value: func(r *Result) any { return r.Point.P }},
	{name: "alpha", value: func(r *Result) any { return r.Point.Alpha }},
	{name: "attack", value: func(r *Result) any { return r.Point.Strategy.String() }},
	{name: "forge", value: func(r *Result) any { return r.Point.Forge }},
	{name: "table", value: func(r *Result) any { return r.Point.Table.String() }},
	{name: "partition", value: func(r *Result) any { return r.Point.Partition }},
	{name: "fault", value: func(r *Result) any { return r.Point.Fault.String() }},
	{name: "fault_sev", value: func(r *Result) any { return r.Point.FaultSeverity }},
	{name: "retry", value: func(r *Result) any { return r.Point.Retry }},
	{name: "seed", value: func(r *Result) any { return r.Point.Seed }},
	{name: "samples", value: func(r *Result) any { return r.Samples }},
	{name: "released", value: func(r *Result) any { return r.Released }},
	{name: "delivered", value: func(r *Result) any { return r.Delivered }},
	{name: "succeeded", value: func(r *Result) any { return r.Succeeded }},
	{name: "rr", value: func(r *Result) any { return r.Rr }},
	{name: "rd", value: func(r *Result) any { return r.Rd }},
	{name: "r", value: func(r *Result) any { return r.R }},
	{name: "min_r", value: func(r *Result) any { return r.MinR() }},
	{name: "cost", value: func(r *Result) any { return r.Cost }},
	{name: "pred_rr", value: func(r *Result) any { return r.Predicted.ReleaseAhead }},
	{name: "pred_rd", value: func(r *Result) any { return r.Predicted.Drop }},
	{name: "ref_rr", value: func(r *Result) any { return ifRef(r, r.RefRelease.Rr()) }},
	{name: "ref_rd", value: func(r *Result) any { return ifRef(r, r.RefDeliver.Rd()) }},
	{name: "agree_release", value: func(r *Result) any { return ifRef(r, r.AgreeRelease) }},
	{name: "agree_deliver", value: func(r *Result) any { return ifRef(r, r.AgreeDeliver) }},
	{name: "deaths", value: func(r *Result) any { return r.Deaths }},
	{name: "joins", value: func(r *Result) any { return r.Joins }},
	{name: "retries", value: func(r *Result) any { return r.Retries }},
	{name: "recovered", value: func(r *Result) any { return r.Recovered }},
	{name: "dup_deliveries", value: func(r *Result) any { return r.Duplicates }},
	{name: "epochs", value: func(r *Result) any { return r.Epochs }},
	{name: "idle_skips", value: func(r *Result) any { return r.IdleSkips }},
	{name: "merge_allocs", value: func(r *Result) any { return r.MergeAllocs }},
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteCSV renders one row per point, in grid order: every column but the
// jsonOnly ones, floats to six significant digits.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	var cells []string
	for _, c := range columns {
		if !c.jsonOnly {
			cells = append(cells, c.name)
		}
	}
	if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
		return err
	}
	for i := range rs.Results {
		cells = cells[:0]
		for _, c := range columns {
			if c.jsonOnly {
				continue
			}
			switch v := c.value(&rs.Results[i]).(type) {
			case nil:
				cells = append(cells, "")
			case float64:
				cells = append(cells, fnum(v))
			default:
				cells = append(cells, fmt.Sprint(v))
			}
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, ",")); err != nil {
			return err
		}
	}
	return nil
}

// jsonSchema versions the WriteJSON document: 2 is the one-schema layout,
// in which every result carries every column it has a value for.
const jsonSchema = 2

// sweepJSON is the document WriteJSON renders.
type sweepJSON struct {
	Schema    int          `json:"schema"`
	Name      string       `json:"name,omitempty"`
	Estimator string       `json:"estimator"`
	Seed      uint64       `json:"seed"`
	Axes      []axisJSON   `json:"axes"`
	Results   []resultJSON `json:"results"`
}

type axisJSON struct {
	Name   string   `json:"name"`
	Values []string `json:"values"`
}

// resultJSON renders one result as an object of its columns, in table
// order.
type resultJSON struct{ res *Result }

func (row resultJSON) MarshalJSON() ([]byte, error) {
	b := []byte{'{'}
	for _, c := range columns {
		v := c.value(row.res)
		if v == nil {
			continue
		}
		val, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		b = append(strconv.AppendQuote(b, c.name), ':')
		b = append(b, val...)
	}
	return append(b, '}'), nil
}

// WriteJSON renders the whole result set as one indented JSON document.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	doc := sweepJSON{
		Schema:    jsonSchema,
		Name:      rs.Sweep.Name,
		Estimator: rs.Estimator,
		Seed:      rs.Sweep.Seed,
	}
	for _, ax := range rs.Sweep.Axes {
		doc.Axes = append(doc.Axes, axisJSON{Name: ax.Name, Values: ax.Labels()})
	}
	for i := range rs.Results {
		doc.Results = append(doc.Results, resultJSON{&rs.Results[i]})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteTable renders a fixed-width per-point table, the human-friendly form
// printed by cmd/emergesim.
func (rs *ResultSet) WriteTable(w io.Writer) error {
	name := rs.Sweep.Name
	if name == "" {
		name = "sweep"
	}
	if _, err := fmt.Fprintf(w, "%s — estimator=%s points=%d seed=%d\n",
		name, rs.Estimator, len(rs.Results), rs.Sweep.Seed); err != nil {
		return err
	}
	header := fmt.Sprintf("%-18s %8s %7s %7s %7s %7s %8s %8s", "series", "x", "Rr", "Rd", "R", "minR", "cost", "samples")
	hasRef := false
	for _, res := range rs.Results {
		hasRef = hasRef || res.HasReference
	}
	if hasRef {
		header += fmt.Sprintf(" %7s %7s %6s", "mc-Rr", "mc-Rd", "agree")
	}
	if _, err := fmt.Fprintln(w, header); err != nil {
		return err
	}
	for _, res := range rs.Results {
		// X renders via fnum, not a fixed decimal count: integer axes
		// (network, budget) would overflow an %8.3f cell.
		row := fmt.Sprintf("%-18s %8s %7.3f %7.3f %7.3f %7.3f %8d %8d",
			res.Point.Series, fnum(res.Point.X), res.Rr, res.Rd, res.R, res.MinR(), res.Cost, res.Samples)
		if hasRef {
			if res.HasReference {
				agree := "ok"
				if !res.AgreeRelease || !res.AgreeDeliver {
					agree = "MISS"
				}
				row += fmt.Sprintf(" %7.3f %7.3f %6s", res.RefRelease.Rr(), res.RefDeliver.Rd(), agree)
			} else {
				row += fmt.Sprintf(" %7s %7s %6s", "-", "-", "-")
			}
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}
