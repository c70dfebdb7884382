package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// csvHeader is the column set of WriteCSV, one for every estimator: a
// column an estimator does not measure reads zero (or empty, for the
// references only the live estimator computes). Wall-clock fields are
// deliberately absent: the CSV and JSON emitters are byte-deterministic for
// a fixed sweep and estimator, regardless of runner worker count.
var csvHeader = []string{
	"index", "series", "x",
	"scheme", "k", "l", "sharen", "replicas",
	"network", "budget", "p", "alpha", "attack", "forge", "table", "partition",
	"fault", "fault_sev", "retry", "seed",
	"samples", "released", "delivered", "succeeded",
	"rr", "rd", "r", "min_r", "cost", "pred_rr", "pred_rd",
	"ref_rr", "ref_rd", "agree_release", "agree_deliver",
	"deaths", "joins", "retries", "recovered", "dup_deliveries",
	"epochs", "idle_skips", "merge_allocs",
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

func unum(v uint64) string { return strconv.FormatUint(v, 10) }

// WriteCSV renders one row per point, in grid order.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(csvHeader, ",")); err != nil {
		return err
	}
	for _, res := range rs.Results {
		pt := res.Point
		row := []string{
			strconv.Itoa(pt.Index), pt.Series, fnum(pt.X),
			res.Plan.Scheme.String(), strconv.Itoa(res.Plan.K), strconv.Itoa(res.Plan.L),
			strconv.Itoa(res.Plan.ShareN), strconv.Itoa(pt.Replicas),
			strconv.Itoa(pt.Network), strconv.Itoa(pt.Budget), fnum(pt.P), fnum(pt.Alpha),
			pt.Strategy.String(), fnum(pt.Forge), pt.Table.String(), strconv.Itoa(pt.Partition),
			pt.Fault.String(), fnum(pt.FaultSev), strconv.Itoa(pt.Retry), unum(pt.Seed),
			strconv.Itoa(res.Samples), strconv.Itoa(res.Released),
			strconv.Itoa(res.Delivered), strconv.Itoa(res.Succeeded),
			fnum(res.Rr), fnum(res.Rd), fnum(res.R), fnum(res.MinR()),
			strconv.Itoa(res.Cost), fnum(res.Predicted.ReleaseAhead), fnum(res.Predicted.Drop),
		}
		if res.HasReference {
			row = append(row,
				fnum(res.RefRelease.Rr()), fnum(res.RefDeliver.Rd()),
				strconv.FormatBool(res.AgreeRelease), strconv.FormatBool(res.AgreeDeliver),
			)
		} else {
			row = append(row, "", "", "", "")
		}
		c := res.Counters
		row = append(row,
			strconv.Itoa(c.Deaths), strconv.Itoa(c.Joins),
			unum(c.Retries), unum(c.Recovered), unum(c.Duplicates),
			unum(c.Epochs), unum(c.IdleSkips), unum(c.MergeAllocs),
		)
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// jsonSchema versions the WriteJSON document: 2 is the one-schema layout,
// in which every result carries every field.
const jsonSchema = 2

// sweepJSON / resultJSON define the JSON schema of WriteJSON; resultJSON
// carries csvHeader's columns under the same names.
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

type resultJSON struct {
	Index  int     `json:"index"`
	Series string  `json:"series"`
	X      float64 `json:"x"`

	Scheme   string `json:"scheme"`
	K        int    `json:"k"`
	L        int    `json:"l"`
	ShareN   int    `json:"sharen"`
	ShareM   []int  `json:"sharem,omitempty"`
	Replicas int    `json:"replicas"`

	Network   int     `json:"network"`
	Budget    int     `json:"budget"`
	P         float64 `json:"p"`
	Alpha     float64 `json:"alpha"`
	Attack    string  `json:"attack"`
	Forge     float64 `json:"forge"`
	Table     string  `json:"table"`
	Partition int     `json:"partition"`
	Fault     string  `json:"fault"`
	FaultSev  float64 `json:"fault_sev"`
	Retry     int     `json:"retry"`
	Seed      uint64  `json:"seed"`

	Samples   int     `json:"samples"`
	Released  int     `json:"released"`
	Delivered int     `json:"delivered"`
	Succeeded int     `json:"succeeded"`
	Rr        float64 `json:"rr"`
	Rd        float64 `json:"rd"`
	R         float64 `json:"r"`
	MinR      float64 `json:"min_r"`
	Cost      int     `json:"cost"`
	PredRr    float64 `json:"pred_rr"`
	PredRd    float64 `json:"pred_rd"`

	// The reference fields stay pointers with omitempty: absence means "no
	// reference was computed" (abstract estimators), which is distinct from
	// a measured zero.
	RefRr        *float64 `json:"ref_rr,omitempty"`
	RefRd        *float64 `json:"ref_rd,omitempty"`
	AgreeRelease *bool    `json:"agree_release,omitempty"`
	AgreeDeliver *bool    `json:"agree_deliver,omitempty"`

	Deaths      int    `json:"deaths"`
	Joins       int    `json:"joins"`
	Retries     uint64 `json:"retries"`
	Recovered   uint64 `json:"recovered"`
	Duplicates  uint64 `json:"dup_deliveries"`
	Epochs      uint64 `json:"epochs"`
	IdleSkips   uint64 `json:"idle_skips"`
	MergeAllocs uint64 `json:"merge_allocs"`
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
	for _, res := range rs.Results {
		pt, c := res.Point, res.Counters
		rj := resultJSON{
			Index: pt.Index, Series: pt.Series, X: pt.X,
			Scheme: res.Plan.Scheme.String(), K: res.Plan.K, L: res.Plan.L,
			ShareN: res.Plan.ShareN, ShareM: res.Plan.ShareM, Replicas: pt.Replicas,
			Network: pt.Network, Budget: pt.Budget, P: pt.P, Alpha: pt.Alpha,
			Attack: pt.Strategy.String(), Forge: pt.Forge, Table: pt.Table.String(), Partition: pt.Partition,
			Fault: pt.Fault.String(), FaultSev: pt.FaultSev, Retry: pt.Retry, Seed: pt.Seed,
			Samples: res.Samples, Released: res.Released,
			Delivered: res.Delivered, Succeeded: res.Succeeded,
			Rr: res.Rr, Rd: res.Rd, R: res.R, MinR: res.MinR(), Cost: res.Cost,
			PredRr: res.Predicted.ReleaseAhead, PredRd: res.Predicted.Drop,
			Deaths: c.Deaths, Joins: c.Joins,
			Retries: c.Retries, Recovered: c.Recovered, Duplicates: c.Duplicates,
			Epochs: c.Epochs, IdleSkips: c.IdleSkips, MergeAllocs: c.MergeAllocs,
		}
		if res.HasReference {
			refRr, refRd := res.RefRelease.Rr(), res.RefDeliver.Rd()
			agreeRel, agreeDel := res.AgreeRelease, res.AgreeDeliver
			rj.RefRr, rj.RefRd = &refRr, &refRd
			rj.AgreeRelease, rj.AgreeDeliver = &agreeRel, &agreeDel
		}
		doc.Results = append(doc.Results, rj)
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
