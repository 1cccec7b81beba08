// Package stats provides the statistics and rendering helpers used by
// the measurement harness and the campaign engine: histograms, empirical
// CDFs, means and medians, binomial (Wilson) and mean confidence
// intervals, and fixed-width tables that mirror the layout of the paper's
// tables and figures.
package stats
