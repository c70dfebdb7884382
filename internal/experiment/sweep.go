package experiment

import (
	"fmt"
	"strconv"
	"strings"

	"selfemerge/internal/core"
)

// seedStride decorrelates per-point seeds along the X axis; it is the same
// golden-ratio stride the pre-runner figure sweeps used, so refactored
// figures reproduce their historical series exactly.
const seedStride = 0x9e3779b97f4a7c15

// Sweep declares a parameter sweep: a base point and the axes that vary.
// The first axis is the figure's X axis (numeric); the cartesian product of the
// remaining axes (later axes varying faster) forms the series. Expansion is
// deterministic: point i of series s has flat index s*len(X)+i, and every
// point at X index i gets seed Seed + i*seedStride — series share random
// numbers at matched X, the common-random-numbers variance reduction the
// original figure loops applied.
type Sweep struct {
	Name string
	Base Point
	Axes []Axis
	Seed uint64
}

// Axis is one swept dimension: a parameter name from the table (Params;
// `emergesim sweep -h` lists the vocabulary) and the values it takes.
type Axis struct {
	Name string
	vals []axisValue
}

// axisValue is one value of an axis; categorical values ride as ordinals.
type axisValue struct {
	num   float64
	label string
}

// Len returns the number of values on the axis.
func (a Axis) Len() int { return len(a.vals) }

// Labels returns the human-readable axis values.
func (a Axis) Labels() []string {
	out := make([]string, len(a.vals))
	for i, v := range a.vals {
		out[i] = v.label
	}
	return out
}

// FloatAxis declares a numeric axis from explicit values. Labels round to
// six significant digits, matching the emitters, so range grids do not leak
// floating-point noise (0.15000000000000002) into series labels.
func FloatAxis(name string, values ...float64) Axis {
	ax := Axis{Name: name}
	for _, v := range values {
		ax.vals = append(ax.vals, axisValue{num: v, label: fnum(v)})
	}
	return ax
}

// RangeAxis declares a numeric axis over [start, stop] in step increments.
// The grid is built on integer steps to avoid floating-point drift, and
// never emits a value beyond stop: a step that does not evenly divide the
// range truncates (0:10:4 yields 0, 4, 8).
func RangeAxis(name string, start, stop, step float64) Axis {
	if step <= 0 {
		return FloatAxis(name, start)
	}
	r := (stop - start) / step
	// Floor with a relative epsilon so exact divisions landing just below an
	// integer (0.5/0.02 = 24.999...) still include their endpoint.
	steps := int(r*(1+1e-12) + 1e-9)
	values := make([]float64, 0, steps+1)
	for i := 0; i <= steps; i++ {
		values = append(values, start+float64(i)*step)
	}
	return FloatAxis(name, values...)
}

// IntAxis declares an integer-valued axis.
func IntAxis(name string, values ...int) Axis {
	ax := Axis{Name: name}
	for _, v := range values {
		ax.vals = append(ax.vals, axisValue{num: float64(v), label: strconv.Itoa(v)})
	}
	return ax
}

// SchemeAxis declares the routing-scheme axis.
func SchemeAxis(schemes ...core.Scheme) Axis {
	ax := Axis{Name: "scheme"}
	for _, s := range schemes {
		ax.vals = append(ax.vals, axisValue{num: float64(s), label: s.String()})
	}
	return ax
}

// ParseAxis parses a command-line axis spec: "name=v1,v2,..." or, for
// numeric axes, a range "name=start:stop:step". Categorical values are the
// labels the emitters print (central, pingevict, burst, ...).
func ParseAxis(spec string) (Axis, error) {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return Axis{}, fmt.Errorf("experiment: axis %q not of form name=values", spec)
	}
	name = strings.ToLower(strings.TrimSpace(name))
	pa := param(name)
	if pa == nil {
		return Axis{}, fmt.Errorf("experiment: unknown axis %q", name)
	}
	if !pa.categorical {
		if start, stop, step, ok, err := parseRange(rest); err != nil {
			return Axis{}, fmt.Errorf("experiment: axis %q: %w", spec, err)
		} else if ok {
			return RangeAxis(pa.Name, start, stop, step), nil
		}
	}
	ax := Axis{Name: pa.Name}
	for _, part := range strings.Split(rest, ",") {
		v, err := pa.parse(strings.ToLower(strings.TrimSpace(part)))
		if err != nil {
			return Axis{}, fmt.Errorf("experiment: axis %q: %w", spec, err)
		}
		ax.vals = append(ax.vals, axisValue{num: v, label: pa.label(v)})
	}
	return ax, nil
}

// parseRange recognizes "start:stop:step"; ok is false for plain lists.
func parseRange(s string) (start, stop, step float64, ok bool, err error) {
	if !strings.Contains(s, ":") {
		return 0, 0, 0, false, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return 0, 0, 0, false, fmt.Errorf("range %q not of form start:stop:step", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		if vals[i], err = strconv.ParseFloat(strings.TrimSpace(p), 64); err != nil {
			return 0, 0, 0, false, fmt.Errorf("range %q: %w", s, err)
		}
	}
	if vals[2] <= 0 {
		return 0, 0, 0, false, fmt.Errorf("range %q: step must be positive", s)
	}
	if vals[1] < vals[0] {
		return 0, 0, 0, false, fmt.Errorf("range %q: stop below start", s)
	}
	return vals[0], vals[1], vals[2], true, nil
}

// SeriesLabels returns one label per series, in expansion order: the
// "/"-joined labels of the non-X axes, or the base scheme's name for a
// single-axis sweep.
func (s Sweep) SeriesLabels() []string {
	if len(s.Axes) <= 1 {
		return []string{s.Base.Scheme.String()}
	}
	labels := []string{""}
	for _, ax := range s.Axes[1:] {
		next := make([]string, 0, len(labels)*ax.Len())
		for _, prefix := range labels {
			for _, v := range ax.vals {
				label := v.label
				if prefix != "" {
					label = prefix + "/" + v.label
				}
				next = append(next, label)
			}
		}
		labels = next
	}
	return labels
}

// Points expands the sweep into its deterministic grid.
func (s Sweep) Points() ([]Point, error) {
	if len(s.Axes) == 0 {
		return nil, fmt.Errorf("experiment: sweep %q has no axes", s.Name)
	}
	rows := make([]*Param, len(s.Axes))
	seen := map[string]bool{}
	for i, ax := range s.Axes {
		if rows[i] = param(ax.Name); rows[i] == nil {
			return nil, fmt.Errorf("experiment: unknown axis %q", ax.Name)
		}
		if ax.Len() == 0 {
			return nil, fmt.Errorf("experiment: axis %q has no values", ax.Name)
		}
		if seen[rows[i].Name] {
			return nil, fmt.Errorf("experiment: axis %q declared twice", ax.Name)
		}
		seen[rows[i].Name] = true
	}
	// The first axis is the figure's X axis and must be numeric: categorical
	// axes (scheme, strategy, table, fault) carry no X coordinate, so every
	// row would plot at x=0 under an indistinguishable label.
	if rows[0].categorical {
		return nil, fmt.Errorf("experiment: first axis %q is categorical; lead with a numeric axis (p, alpha, network, ...)", s.Axes[0].Name)
	}
	// Reject axes no point of the sweep can consult — every value would
	// emit the same series under a different label. A budget axis only
	// matters to planner-sized non-central shapes; a sharen axis only to
	// explicit key share shapes.
	explicitShape := s.Base.K != 0 || s.Base.L != 0 || seen["k"] || seen["l"]
	if seen["budget"] {
		if explicitShape {
			return nil, fmt.Errorf("experiment: budget axis requires planner-sized shapes (k = l = 0, no k/l axes)")
		}
		if s.Base.Scheme == core.SchemeCentral && !seen["scheme"] {
			return nil, fmt.Errorf("experiment: the central scheme ignores the node budget")
		}
	}
	if seen["sharen"] {
		if s.Base.Scheme != core.SchemeKeyShare && !seen["scheme"] {
			return nil, fmt.Errorf("experiment: the sharen axis applies to the share scheme only")
		}
		if !explicitShape {
			return nil, fmt.Errorf("experiment: the sharen axis requires an explicit shape (planner-sized share plans compute it)")
		}
	}

	xAxis := s.Axes[0]
	labels := s.SeriesLabels()
	// seriesCombo returns the value picked from each non-X axis for series
	// index si, with later axes varying fastest (matching SeriesLabels).
	combo := func(si int) []axisValue {
		vals := make([]axisValue, len(s.Axes)-1)
		for i := len(s.Axes) - 1; i >= 1; i-- {
			n := s.Axes[i].Len()
			vals[i-1] = s.Axes[i].vals[si%n]
			si /= n
		}
		return vals
	}

	points := make([]Point, 0, len(labels)*xAxis.Len())
	for si := range labels {
		seriesVals := combo(si)
		for xi, xv := range xAxis.vals {
			pt := s.Base
			pt.ShareM = append([]int(nil), s.Base.ShareM...)
			if err := rows[0].assign(&pt, xv.num); err != nil {
				return nil, err
			}
			for i, row := range rows[1:] {
				if err := row.assign(&pt, seriesVals[i].num); err != nil {
					return nil, err
				}
			}
			pt.Seed = s.Seed + uint64(xi)*seedStride
			pt.Index = len(points)
			pt.X = xv.num
			pt.Series = labels[si]
			if err := pt.Validate(); err != nil {
				return nil, fmt.Errorf("point %d (%s, x=%s): %w", pt.Index, pt.Series, xv.label, err)
			}
			points = append(points, pt)
		}
	}
	return points, nil
}
