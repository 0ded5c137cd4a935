// Package spaces wires the repo's shardable job spaces into the fleet
// registry. Importing it (for side effects) is what lets a coordinator
// name a space on the wire and a worker process rebuild it from the
// spec:
//
//	"campaign" — the chaos read-path campaign (chaos.Config)
//	"soak"     — the chaos lifecycle soak campaign (chaos.SoakConfig)
//
// The package exists to break an import cycle: fleet stays generic
// (it cannot import chaos, which its workers execute), so the adapters
// register here and cmd/limit-chaos imports this glue.
package spaces

import (
	"encoding/json"
	"fmt"

	"limitsim/internal/chaos"
	"limitsim/internal/fleet"
)

func init() {
	fleet.Register("campaign", func(cfg json.RawMessage) (fleet.JobSpace, error) {
		var c chaos.Config
		if err := decode(cfg, &c); err != nil {
			return nil, fmt.Errorf("campaign space: %w", err)
		}
		return chaos.NewCampaignSpace(c), nil
	})
	fleet.Register("soak", func(cfg json.RawMessage) (fleet.JobSpace, error) {
		var c chaos.SoakConfig
		if err := decode(cfg, &c); err != nil {
			return nil, fmt.Errorf("soak space: %w", err)
		}
		return chaos.NewSoakSpace(c), nil
	})
}

// CampaignSpec builds the wire spec for a campaign config.
func CampaignSpec(cfg chaos.Config) (fleet.SpaceSpec, error) {
	return spec("campaign", cfg)
}

// SoakSpec builds the wire spec for a soak config.
func SoakSpec(cfg chaos.SoakConfig) (fleet.SpaceSpec, error) {
	return spec("soak", cfg)
}

func spec(kind string, cfg any) (fleet.SpaceSpec, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return fleet.SpaceSpec{}, fmt.Errorf("%s space: encoding config: %w", kind, err)
	}
	return fleet.SpaceSpec{Kind: kind, Config: raw}, nil
}

func decode(cfg json.RawMessage, into any) error {
	if len(cfg) == 0 {
		return nil
	}
	return json.Unmarshal(cfg, into)
}
