package scenario

import (
	"fmt"
	"io"

	"selfemerge/internal/analytic"
	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
)

// WriteTable renders the report as an aligned ASCII table: the live
// measurement with its Wilson intervals next to the Monte Carlo estimate at
// the matched environment and the no-churn closed form.
func (r *Report) WriteTable(w io.Writer) error {
	cfg := r.Config
	attack := cfg.Strategy.String()
	if cfg.Forge > 0 {
		attack += fmt.Sprintf(" forge=%g", cfg.Forge)
	}
	if cfg.Table != dht.TableDefault {
		attack += " table=" + cfg.Table.String()
	}
	if _, err := fmt.Fprintf(w,
		"scenario %s k=%d l=%d: N=%d p=%.3f alpha=%.2f attack=%s replicas=%d missions=%d shards=%d partition=%d emerging=%s seed=%d\n",
		cfg.Plan.Scheme, cfg.Plan.K, cfg.Plan.L, cfg.Nodes, cfg.MaliciousRate,
		cfg.Alpha, attack, cfg.Replicas, cfg.Missions, cfg.Shards, cfg.Partition, cfg.Emerging, cfg.Seed); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w,
		"churn: %d deaths, %d joins; fabric: %d sent, %d delivered, %d dropped; wall %s\n",
		r.Deaths, r.Joins, r.Sent, r.Recv, r.Dropped, r.Elapsed.Round(1e6)); err != nil {
		return err
	}
	sc, m := r.Sends, float64(max(r.Live.Missions, 1))
	if _, err := fmt.Fprintf(w,
		"per mission: %.2f owner walks (%.2f ended at target), %.2f exact, %.2f owner sends to self, %.2f riders, %.2f app sends\n",
		float64(sc.OwnerWalks)/m, float64(sc.OwnerWalksAtTarget)/m, float64(sc.OwnerWalksExact)/m, float64(sc.OwnerSendsSelf)/m,
		float64(sc.Riders)/m, float64(sc.AppSends)/m); err != nil {
		return err
	}
	if cfg.Fault != fault.ProfileNone || cfg.Retry > 1 {
		if _, err := fmt.Fprintf(w,
			"fault: profile=%s severity=%.2f retry=%d; rpc: %d retries, %d recovered, %d duplicate deliveries\n",
			cfg.Fault, cfg.FaultSeverity, cfg.Retry, r.Retries, r.Recovered, r.Duplicates); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-22s %-28s %s\n", "", "Rr (release resilience)", "Rd (delivery resilience)"); err != nil {
		return err
	}

	// Wilson intervals on the success probabilities, mapped to the
	// resilience convention (Rr = 1 - release rate).
	relLo, relHi := r.Live.ReleaseCI()
	delLo, delHi := r.Live.DeliverCI()
	if _, err := fmt.Fprintf(w, "%-22s %.3f [%.3f, %.3f]         %.3f [%.3f, %.3f]\n",
		fmt.Sprintf("live (%d missions)", r.Live.Missions),
		r.Live.Rr(), 1-relHi, 1-relLo, r.Live.Rd(), delLo, delHi); err != nil {
		return err
	}
	mrelLo, mrelHi := r.MC.ReleaseCI()
	mdelLo, mdelHi := r.MCDelivery.DeliverCI()
	if _, err := fmt.Fprintf(w, "%-22s %.3f [%.3f, %.3f]         %.3f [%.3f, %.3f]\n",
		fmt.Sprintf("monte-carlo (%d)", r.MC.Trials),
		r.MC.Rr(), 1-mrelHi, 1-mrelLo, r.MCDelivery.Rd(), mdelLo, mdelHi); err != nil {
		return err
	}
	if r.Predicted != (analytic.Resilience{}) {
		if _, err := fmt.Fprintf(w, "%-22s %.3f                        %.3f\n",
			"analytic (no churn)", r.Predicted.ReleaseAhead, r.Predicted.Drop); err != nil {
			return err
		}
	}
	relOK, delOK := r.AgreesWithMC()
	_, err := fmt.Fprintf(w, "agreement with monte-carlo 95%% Wilson interval: release=%v delivery=%v\n",
		relOK, delOK)
	return err
}
