// Package trace exports experiment tables and simulation time series
// in machine-readable form (CSV) so the paper's plots can be
// regenerated with any plotting tool from colloidsim output.
package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"colloid/internal/sim"
)

// WriteTableCSV writes header+rows as CSV. Unit suffixes in cells are
// preserved.
func WriteTableCSV(w io.Writer, columns []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(columns); err != nil {
		return err
	}
	for _, row := range rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSamplesCSV writes a simulation trace: one row per sample with
// time, throughput, per-tier latency/share/bandwidth, and migration
// rate. numTiers controls how many per-tier columns are emitted.
func WriteSamplesCSV(w io.Writer, samples []sim.Sample, numTiers int) error {
	cw := csv.NewWriter(w)
	header := []string{"t_sec", "ops_per_sec", "migration_bytes_per_sec"}
	for t := 0; t < numTiers; t++ {
		header = append(header,
			fmt.Sprintf("latency_ns_t%d", t),
			fmt.Sprintf("app_share_t%d", t),
			fmt.Sprintf("app_bytes_per_sec_t%d", t),
		)
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range samples {
		row := []string{
			fmt.Sprintf("%.3f", s.TimeSec),
			fmt.Sprintf("%.0f", s.OpsPerSec),
			fmt.Sprintf("%.0f", s.MigrationBytesPerSec),
		}
		for t := 0; t < numTiers; t++ {
			var lat, share, bw float64
			if t < len(s.LatencyNs) {
				lat = s.LatencyNs[t]
			}
			if t < len(s.AppShare) {
				share = s.AppShare[t]
			}
			if t < len(s.AppBytesPerSec) {
				bw = s.AppBytesPerSec[t]
			}
			row = append(row,
				fmt.Sprintf("%.1f", lat),
				fmt.Sprintf("%.4f", share),
				fmt.Sprintf("%.0f", bw),
			)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadSamplesCSV parses a trace written by WriteSamplesCSV back into
// samples, inferring the tier count from the header. Values come back
// at the precision they were printed with; NaN and ±Inf cells survive
// the round trip (fmt prints them as NaN/+Inf/-Inf, which ParseFloat
// accepts).
func ReadSamplesCSV(r io.Reader) ([]sim.Sample, error) {
	cr := csv.NewReader(r)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	const fixed = 3 // t_sec, ops_per_sec, migration_bytes_per_sec
	if len(header) < fixed || header[0] != "t_sec" {
		return nil, fmt.Errorf("trace: not a samples CSV (header %v)", header)
	}
	if (len(header)-fixed)%3 != 0 {
		return nil, fmt.Errorf("trace: malformed header: %d per-tier columns not divisible by 3", len(header)-fixed)
	}
	numTiers := (len(header) - fixed) / 3
	var samples []sim.Sample
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: row %d: %w", len(samples)+2, err)
		}
		cell := func(i int) (float64, error) { return strconv.ParseFloat(row[i], 64) }
		var s sim.Sample
		if s.TimeSec, err = cell(0); err != nil {
			return nil, fmt.Errorf("trace: row %d t_sec: %w", len(samples)+2, err)
		}
		if s.OpsPerSec, err = cell(1); err != nil {
			return nil, fmt.Errorf("trace: row %d ops_per_sec: %w", len(samples)+2, err)
		}
		if s.MigrationBytesPerSec, err = cell(2); err != nil {
			return nil, fmt.Errorf("trace: row %d migration rate: %w", len(samples)+2, err)
		}
		s.LatencyNs = make([]float64, numTiers)
		s.AppShare = make([]float64, numTiers)
		s.AppBytesPerSec = make([]float64, numTiers)
		for t := 0; t < numTiers; t++ {
			base := fixed + 3*t
			if s.LatencyNs[t], err = cell(base); err != nil {
				return nil, fmt.Errorf("trace: row %d tier %d latency: %w", len(samples)+2, t, err)
			}
			if s.AppShare[t], err = cell(base + 1); err != nil {
				return nil, fmt.Errorf("trace: row %d tier %d share: %w", len(samples)+2, t, err)
			}
			if s.AppBytesPerSec[t], err = cell(base + 2); err != nil {
				return nil, fmt.Errorf("trace: row %d tier %d bandwidth: %w", len(samples)+2, t, err)
			}
		}
		samples = append(samples, s)
	}
	return samples, nil
}
