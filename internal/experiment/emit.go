package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"selfemerge/internal/fault"
)

// csvHeader is the stable column set of WriteCSV. Wall-clock fields are
// deliberately absent: the CSV and JSON emitters are byte-deterministic for
// a fixed sweep and estimator, regardless of runner worker count.
var csvHeader = []string{
	"index", "series", "x",
	"scheme", "k", "l", "sharen", "replicas",
	"network", "budget", "p", "alpha", "attack", "seed",
	"samples", "released", "delivered", "succeeded",
	"rr", "rd", "r", "min_r", "cost", "pred_rr", "pred_rd",
	"ref_rr", "ref_rd", "agree_release", "agree_deliver", "deaths", "joins",
}

// faultHeader extends csvHeader for result sets that exercise the fault or
// retry knobs. Conditional so every recorded fault-free sweep keeps its
// historical bytes.
var faultHeader = []string{
	"fault", "fault_sev", "retry", "retries", "recovered", "dup_deliveries",
}

// hasFaultArm reports whether any point of the set turns a fault or retry
// knob, which is what switches the emitters onto the extended column set.
func (rs *ResultSet) hasFaultArm() bool {
	for _, res := range rs.Results {
		pt := res.Point
		if pt.Fault != fault.ProfileNone || pt.FaultSev != 0 || pt.Retry != 0 {
			return true
		}
	}
	return false
}

// loopHeader extends csvHeader for result sets measured on the live engine,
// carrying its event-loop counters — every live sweep, since every live
// point runs at least one lockstep epoch. Conditional like faultHeader so
// the abstract estimators' recorded sweeps keep their historical bytes.
var loopHeader = []string{
	"epochs", "idle_skips", "merge_allocs",
}

// hasLoopStats reports whether any result ran event loops. The test is on
// the measured counters, not the point's Partition axis, which stays zero
// for the default one-loop network.
func (rs *ResultSet) hasLoopStats() bool {
	for _, res := range rs.Results {
		if res.Epochs > 0 {
			return true
		}
	}
	return false
}

func fnum(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }

// WriteCSV renders one row per point, in grid order.
func (rs *ResultSet) WriteCSV(w io.Writer) error {
	header := csvHeader
	faultArm := rs.hasFaultArm()
	loopArm := rs.hasLoopStats()
	if faultArm || loopArm {
		header = append([]string(nil), csvHeader...)
	}
	if faultArm {
		header = append(header, faultHeader...)
	}
	if loopArm {
		header = append(header, loopHeader...)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, res := range rs.Results {
		pt := res.Point
		row := []string{
			strconv.Itoa(pt.Index), pt.Series, fnum(pt.X),
			res.Plan.Scheme.String(), strconv.Itoa(res.Plan.K), strconv.Itoa(res.Plan.L),
			strconv.Itoa(res.Plan.ShareN), strconv.Itoa(pt.Replicas),
			strconv.Itoa(pt.Network), strconv.Itoa(pt.Budget),
			fnum(pt.P), fnum(pt.Alpha), pt.Strategy.String(), strconv.FormatUint(pt.Seed, 10),
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
		row = append(row, strconv.Itoa(res.Deaths), strconv.Itoa(res.Joins))
		if faultArm {
			row = append(row,
				pt.Fault.String(), fnum(pt.FaultSev), strconv.Itoa(pt.Retry),
				strconv.FormatUint(res.Retries, 10), strconv.FormatUint(res.Recovered, 10),
				strconv.FormatUint(res.Duplicates, 10),
			)
		}
		if loopArm {
			row = append(row,
				strconv.FormatUint(res.Epochs, 10), strconv.FormatUint(res.IdleSkips, 10),
				strconv.FormatUint(res.MergeAllocs, 10),
			)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// sweepJSON / resultJSON define the stable JSON schema of WriteJSON.
type sweepJSON struct {
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

	Network int     `json:"network"`
	Budget  int     `json:"budget"`
	P       float64 `json:"p"`
	Alpha   float64 `json:"alpha"`
	Attack  string  `json:"attack"`
	Seed    uint64  `json:"seed"`

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
	Deaths       int      `json:"deaths"`
	Joins        int      `json:"joins"`

	// Fault-injection / retry-hardening fields, all omitempty: absent on the
	// historical fault-free single-shot points, so recorded sweep JSON keeps
	// its exact bytes.
	Fault      string  `json:"fault,omitempty"`
	FaultSev   float64 `json:"fault_sev,omitempty"`
	Retry      int     `json:"retry,omitempty"`
	Retries    uint64  `json:"retries,omitempty"`
	Recovered  uint64  `json:"recovered,omitempty"`
	Duplicates uint64  `json:"dup_deliveries,omitempty"`

	// Event-loop counters, omitempty: absent on the abstract estimators'
	// points, so their recorded sweep JSON keeps its exact bytes. IdleSkips
	// and MergeAllocs piggyback on Epochs > 0 (a live run always executes at
	// least one epoch) so a measured zero still emits on live points.
	Epochs      uint64  `json:"epochs,omitempty"`
	IdleSkips   *uint64 `json:"idle_skips,omitempty"`
	MergeAllocs *uint64 `json:"merge_allocs,omitempty"`
}

// WriteJSON renders the whole result set as one indented JSON document.
func (rs *ResultSet) WriteJSON(w io.Writer) error {
	doc := sweepJSON{
		Name:      rs.Sweep.Name,
		Estimator: rs.Estimator,
		Seed:      rs.Sweep.Seed,
	}
	for _, ax := range rs.Sweep.Axes {
		doc.Axes = append(doc.Axes, axisJSON{Name: ax.Name, Values: ax.Labels()})
	}
	for _, res := range rs.Results {
		pt := res.Point
		rj := resultJSON{
			Index: pt.Index, Series: pt.Series, X: pt.X,
			Scheme: res.Plan.Scheme.String(), K: res.Plan.K, L: res.Plan.L,
			ShareN: res.Plan.ShareN, ShareM: res.Plan.ShareM, Replicas: pt.Replicas,
			Network: pt.Network, Budget: pt.Budget, P: pt.P, Alpha: pt.Alpha,
			Attack: pt.Strategy.String(), Seed: pt.Seed,
			Samples: res.Samples, Released: res.Released,
			Delivered: res.Delivered, Succeeded: res.Succeeded,
			Rr: res.Rr, Rd: res.Rd, R: res.R, MinR: res.MinR(), Cost: res.Cost,
			PredRr: res.Predicted.ReleaseAhead, PredRd: res.Predicted.Drop,
			Deaths: res.Deaths, Joins: res.Joins,
		}
		if res.HasReference {
			refRr, refRd := res.RefRelease.Rr(), res.RefDeliver.Rd()
			agreeRel, agreeDel := res.AgreeRelease, res.AgreeDeliver
			rj.RefRr, rj.RefRd = &refRr, &refRd
			rj.AgreeRelease, rj.AgreeDeliver = &agreeRel, &agreeDel
		}
		if pt.Fault != fault.ProfileNone || pt.FaultSev != 0 || pt.Retry != 0 {
			// Only points with a turned knob name their profile: "none" is a
			// real label on fault arms but must stay absent (omitempty) on the
			// historical points.
			rj.Fault = pt.Fault.String()
			rj.FaultSev, rj.Retry = pt.FaultSev, pt.Retry
			rj.Retries, rj.Recovered, rj.Duplicates = res.Retries, res.Recovered, res.Duplicates
		}
		if res.Epochs > 0 {
			idle, mallocs := res.IdleSkips, res.MergeAllocs
			rj.Epochs = res.Epochs
			rj.IdleSkips, rj.MergeAllocs = &idle, &mallocs
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
