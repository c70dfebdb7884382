package experiment

import (
	"cmp"
	"flag"
	"fmt"
	"math"
	"strconv"
	"strings"

	"selfemerge/internal/adversary"
	"selfemerge/internal/core"
	"selfemerge/internal/dht"
	"selfemerge/internal/fault"
)

// Param is one row of the parameter table: the one place a sweepable
// experiment parameter is spelled. The -axis parser, the sweep expansion, the
// categorical-X check, the base-point flags of both emergesim subcommands and
// the abstract estimators' live-only rejection all read Params; a value
// travels as a float64 (categorical values as their ordinal).
type Param struct {
	// Name is the axis name; Alias, when set, is a second accepted axis
	// spelling and the flag's name (nodes for network).
	Name, Alias string
	Help        string
	// LiveOnly marks a parameter only the live estimator reads: the abstract
	// models would emit identical series under its distinct labels.
	LiveOnly bool
	// neutral is a second value besides zero that means "off" to the abstract
	// estimators (replicas: 1, the model-faithful single copy).
	neutral float64
	access
}

// access is how a row reads, writes and spells its Point field.
type access struct {
	categorical, integer bool
	// parse reads a lower-case label, label writes one.
	parse func(string) (float64, error)
	label func(float64) string
	get   func(*Point) float64
	set   func(*Point, float64)
}

// number is the access of a numeric field, labelled as FloatAxis labels its
// values; an int field makes the parameter integer (see assign).
func number[T int | float64](field func(*Point) *T) access {
	_, integer := any(T(0)).(int)
	return access{
		integer: integer,
		parse:   func(s string) (float64, error) { return strconv.ParseFloat(s, 64) },
		label:   fnum,
		get:     func(pt *Point) float64 { return float64(*field(pt)) },
		set:     func(pt *Point, v float64) { *field(pt) = T(v) },
	}
}

// enum is the access of a categorical field: its Parse*/String pair carries
// the labels, its ordinal the value.
func enum[T interface {
	~int
	String() string
}](field func(*Point) *T, parse func(string) (T, error)) access {
	return access{
		categorical: true,
		parse:       func(s string) (float64, error) { v, err := parse(s); return float64(v), err },
		label:       func(v float64) string { return T(v).String() },
		get:         func(pt *Point) float64 { return float64(*field(pt)) },
		set:         func(pt *Point, v float64) { *field(pt) = T(v) },
	}
}

// Params is the parameter table, in -h order.
var Params = []Param{
	{Name: "scheme", Help: "routing scheme: central|disjoint|joint|share", access: enum(func(pt *Point) *core.Scheme { return &pt.Scheme }, core.ParseScheme)},
	{Name: "p", Help: "malicious (Sybil) fraction", access: number(func(pt *Point) *float64 { return &pt.P })},
	{Name: "alpha", Help: "churn severity T/lifetime (0 disables churn)", access: number(func(pt *Point) *float64 { return &pt.Alpha })},
	{Name: "network", Alias: "nodes", Help: "DHT population N", access: number(func(pt *Point) *int { return &pt.Network })},
	{Name: "budget", Help: "planner node budget (0 = nodes)", access: number(func(pt *Point) *int { return &pt.Budget })},
	{Name: "k", Help: "replication factor (paths); 0 with -l 0 lets the planner size the shape", access: number(func(pt *Point) *int { return &pt.K })},
	{Name: "l", Help: "path length (holder columns)", access: number(func(pt *Point) *int { return &pt.L })},
	{Name: "sharen", Help: "share carriers per column (share scheme)", access: number(func(pt *Point) *int { return &pt.ShareN })},
	{Name: "replicas", LiveOnly: true, neutral: 1, Help: "packet replica count (1 = model-faithful)", access: number(func(pt *Point) *int { return &pt.Replicas })},
	{Name: "strategy", LiveOnly: true, Help: "adversary strategy: spy|drop|eclipse", access: enum(func(pt *Point) *adversary.Strategy { return &pt.Strategy }, adversary.ParseStrategy)},
	{Name: "forge", LiveOnly: true, Help: "eclipse forgery rate, forged contacts per attacker per minute; the forger acts once per simulated second with every event loop paused", access: number(func(pt *Point) *float64 { return &pt.Forge })},
	{Name: "table", LiveOnly: true, Help: "DHT routing-table policy: naive|pingevict", access: enum(func(pt *Point) *dht.TablePolicy { return &pt.Table }, dht.ParseTablePolicy)},
	{Name: "partition", LiveOnly: true, Help: "split the one population across this many parallel event loops (0 = one loop)", access: number(func(pt *Point) *int { return &pt.Partition })},
	{Name: "fault", LiveOnly: true, Help: "fault-injection profile: none|burst|partition|flap, judged per event loop at send time", access: enum(func(pt *Point) *fault.Profile { return &pt.Fault }, fault.ParseProfile)},
	{Name: "faultsev", LiveOnly: true, Help: "fault severity in [0,1]", access: number(func(pt *Point) *float64 { return &pt.FaultSev })},
	{Name: "retry", LiveOnly: true, Help: "total send attempts per DHT RPC (>1 enables retry/backoff hardening)", access: number(func(pt *Point) *int { return &pt.Retry })},
}

// param finds a row by axis name or alias.
func param(name string) *Param {
	for i := range Params {
		if pa := &Params[i]; name == pa.Name || name == pa.Flag() {
			return pa
		}
	}
	return nil
}

// Flag is the name of the row's command-line flag.
func (pa *Param) Flag() string { return cmp.Or(pa.Alias, pa.Name) }

// AxisNames lists the axis vocabulary for usage text.
func AxisNames() string {
	names := make([]string, len(Params))
	for i, pa := range Params {
		names[i] = pa.Name
		if pa.Alias != "" {
			names[i] += " (alias: " + pa.Alias + ")"
		}
	}
	return strings.Join(names, ", ")
}

// assign writes the value into the point. Integer parameters reject
// fractional values: silently truncating would run a different parameter
// than the series label claims.
func (pa *Param) assign(pt *Point, v float64) error {
	if pa.integer && v != math.Trunc(v) {
		return fmt.Errorf("experiment: axis %q value %v is not an integer", pa.Name, v)
	}
	pa.set(pt, v)
	return nil
}

// BindFlags declares every table row as a flag on fs that writes its field of
// base; the value base holds at the call is the flag's default. It also binds
// -sharem, the one plan-shape field that is a list and so not an axis.
func BindFlags(fs *flag.FlagSet, base *Point) {
	for i := range Params {
		pa, help := &Params[i], Params[i].Help
		if v := pa.get(base); v != 0 {
			help += " (default " + pa.label(v) + ")"
		}
		fs.Func(pa.Flag(), help, func(s string) error {
			v, err := pa.parse(strings.ToLower(s))
			if err != nil {
				return err
			}
			return pa.assign(base, v)
		})
	}
	fs.Func("sharem", "comma-separated per-column thresholds (share scheme)", func(s string) error {
		base.ShareM = nil
		for _, part := range strings.Split(s, ",") {
			m, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			base.ShareM = append(base.ShareM, m)
		}
		return nil
	})
}

// rejectLiveOnly refuses a point that turns a parameter only the live
// estimator reads: an abstract estimator would emit byte-identical series
// under distinct labels.
func rejectLiveOnly(pt Point, estimator string) error {
	for i := range Params {
		pa := &Params[i]
		if v := pa.get(&pt); pa.LiveOnly && v != 0 && v != pa.neutral {
			return fmt.Errorf("experiment: the %s estimator does not read %s=%s; the %s axis applies to the live estimator only",
				estimator, pa.Name, pa.label(v), pa.Name)
		}
	}
	return nil
}
