package experiment

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/rng"
	"repro/internal/virus"
)

// The paper does not publish its user-timing distributions or the exact
// NGCE topology, so DESIGN.md documents calibrated substitutes. The
// sensitivity studies here vary each substituted parameter and confirm the
// paper's qualitative findings are insensitive to it — the justification
// for the substitution rule.

// SensitivityReadDelay sweeps the mean user read delay around the
// calibrated 30 minutes for the given virus.
func SensitivityReadDelay(s Scale, v virus.Config) Figure {
	fig := Figure{
		ID:     "sens-readdelay",
		Title:  fmt.Sprintf("Sensitivity: mean read delay (%s)", v.Name),
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	for _, mean := range []time.Duration{10 * time.Minute, 30 * time.Minute, 2 * time.Hour} {
		cfg := s.paperConfig(v)
		cfg.Network.ReadDelay = rng.Exponential{MeanD: mean}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("read mean %v", mean),
			Config: cfg,
		})
	}
	return fig
}

// SensitivityDeliveryDelay sweeps the gateway delivery latency.
func SensitivityDeliveryDelay(s Scale, v virus.Config) Figure {
	fig := Figure{
		ID:     "sens-delivery",
		Title:  fmt.Sprintf("Sensitivity: delivery latency (%s)", v.Name),
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	for _, mean := range []time.Duration{5 * time.Second, 30 * time.Second, 5 * time.Minute} {
		cfg := s.paperConfig(v)
		cfg.Network.DeliveryDelay = rng.Exponential{MeanD: mean}
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("delivery mean %v", mean),
			Config: cfg,
		})
	}
	return fig
}

// SensitivityTopology compares the default clustered power-law contact
// lists with a configuration-model power law, Erdős–Rényi, and
// Watts–Strogatz wiring at the same mean degree.
func SensitivityTopology(s Scale, v virus.Config) Figure {
	fig := Figure{
		ID:     "sens-topology",
		Title:  fmt.Sprintf("Sensitivity: contact-list topology (%s)", v.Name),
		XLabel: "Hours",
		YLabel: "Infection Count",
	}

	local := s.paperConfig(v)
	fig.Series = append(fig.Series, Series{Label: "power-law local (default)", Config: local})

	configModel := s.paperConfig(v)
	configModel.Graph.Locality = false
	fig.Series = append(fig.Series, Series{Label: "power-law configuration model", Config: configModel})

	er := s.paperConfig(v)
	meanDeg := er.Graph.MeanDegree
	pop := er.Population
	er.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		g, err := graph.ErdosRenyi(pop, meanDeg/float64(pop-1), src)
		if err != nil {
			return nil, err
		}
		return graph.FromGraph(g), nil
	}
	fig.Series = append(fig.Series, Series{Label: "Erdos-Renyi", Config: er})

	ws := s.paperConfig(v)
	wsPop := ws.Population
	k := int(ws.Graph.MeanDegree)
	if k%2 == 1 {
		k++
	}
	ws.CSRBuilder = func(src *rng.Source) (*graph.CSR, error) {
		g, err := graph.WattsStrogatz(wsPop, k, 0.1, src)
		if err != nil {
			return nil, err
		}
		return graph.FromGraph(g), nil
	}
	fig.Series = append(fig.Series, Series{Label: "Watts-Strogatz", Config: ws})

	return fig
}

// SensitivityDetectThreshold sweeps the gateway detectability threshold
// that starts every response timer.
func SensitivityDetectThreshold(s Scale, v virus.Config) Figure {
	fig := Figure{
		ID:     "sens-detect",
		Title:  fmt.Sprintf("Sensitivity: gateway detectability threshold (%s)", v.Name),
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	for _, threshold := range []int{1, 10, 50} {
		cfg := s.paperConfig(v)
		cfg.Network.GatewayDetectThreshold = threshold
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("detect after %d messages", threshold),
			Config: cfg,
		})
	}
	return fig
}

// SensitivityCongestion challenges the paper's assumption that "the phone
// network infrastructure can support the extra volume of MMS messages":
// each recipient copy is lost with the given probability.
func SensitivityCongestion(s Scale, v virus.Config) Figure {
	fig := Figure{
		ID:     "sens-congestion",
		Title:  fmt.Sprintf("Sensitivity: carrier congestion loss (%s)", v.Name),
		XLabel: "Hours",
		YLabel: "Infection Count",
	}
	for _, loss := range []float64{0, 0.1, 0.3} {
		cfg := s.paperConfig(v)
		cfg.Network.DeliveryLossProb = loss
		fig.Series = append(fig.Series, Series{
			Label:  fmt.Sprintf("loss %.0f%%", 100*loss),
			Config: cfg,
		})
	}
	return fig
}

// SensitivityStudies returns the full sensitivity suite for one virus.
func SensitivityStudies(s Scale, v virus.Config) []Figure {
	return []Figure{
		SensitivityReadDelay(s, v),
		SensitivityDeliveryDelay(s, v),
		SensitivityTopology(s, v),
		SensitivityDetectThreshold(s, v),
		SensitivityCongestion(s, v),
	}
}

// CheckPlateauInvariance asserts that every series of a sensitivity figure
// plateaus near the consent-model prediction (susceptible share x eventual
// acceptance): the paper's headline numbers do not depend on the
// substituted parameter. expected is the predicted plateau; tol is the
// allowed relative deviation.
func CheckPlateauInvariance(fr *FigureResult, expected, tol float64) []Check {
	checks := make([]Check, 0, len(fr.Series))
	for _, s := range fr.Series {
		dev := 0.0
		if expected > 0 {
			dev = s.FinalMean/expected - 1
		}
		if dev < 0 {
			dev = -dev
		}
		checks = append(checks, Check{
			ID:        "S-" + fr.Figure.ID,
			Statement: fmt.Sprintf("%s: plateau invariant under %q", fr.Figure.Title, s.Label),
			Measured:  fmt.Sprintf("final %.1f vs predicted %.1f (dev %.0f%%)", s.FinalMean, expected, 100*dev),
			Pass:      dev <= tol,
		})
	}
	return checks
}
