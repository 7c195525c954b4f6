package main

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"rxview/obs"
)

// series is one /metrics scrape flattened to series key → value. A key is
// the sample name followed by its labels in sorted order, e.g.
// `xview_pipeline_phase_seconds_sum{phase="eval"}`; histogram buckets are
// dropped (the benchmark uses sums and counts only).
type series map[string]float64

// parseScrape reads Prometheus text exposition through the program's own
// parser, obs.ParseExposition.
func parseScrape(r io.Reader) (series, error) {
	fams, err := obs.ParseExposition(r)
	if err != nil {
		return nil, fmt.Errorf("parsing /metrics: %w", err)
	}
	out := series{}
	for _, f := range fams {
		for _, s := range f.Samples {
			if strings.HasSuffix(s.Name, "_bucket") {
				continue
			}
			out[seriesKey(s.Name, s.Labels)] = s.Value
		}
	}
	return out, nil
}

func seriesKey(name string, labels map[string]string) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%q", k, labels[k])
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

// delta is after − before, series by series. A series absent before counts
// from zero (families register lazily on first use).
func (after series) delta(before series) series {
	out := make(series, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// hist names one histogram series: its family name and label pairs.
type hist struct {
	name   string
	labels string // `phase="eval"`, or empty
}

func (h hist) key(suffix string) string {
	if h.labels == "" {
		return h.name + suffix
	}
	return h.name + suffix + "{" + h.labels + "}"
}

// sumSeconds is the summed observation time of h in d, in seconds.
func (d series) sumSeconds(h hist) float64 { return d[h.key("_sum")] }

// count is the number of observations of h in d.
func (d series) count(h hist) float64 { return d[h.key("_count")] }

// meanMS is the mean observation of a seconds-valued histogram in
// milliseconds; 0 when nothing was observed.
func (d series) meanMS(h hist) float64 {
	return ratio(1000*d.sumSeconds(h), d.count(h))
}

// ratio is a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
