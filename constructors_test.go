package ev8pred_test

import "ev8pred"

// facadeConstructors is one small instance of every public predictor
// constructor, keyed by a stable name. TestFacadeAllConstructors checks
// that each builds a working predictor; TestGoldenCorpus pins each one's
// results across benchmarks, modes and update delays.
func facadeConstructors() map[string]ev8pred.Factory {
	return map[string]ev8pred.Factory{
		"bimodal":    func() (ev8pred.Predictor, error) { return ev8pred.NewBimodal(1024) },
		"gshare":     func() (ev8pred.Predictor, error) { return ev8pred.NewGshare(1024, 10) },
		"gas":        func() (ev8pred.Predictor, error) { return ev8pred.NewGAs(6, 5) },
		"egskew":     func() (ev8pred.Predictor, error) { return ev8pred.NewEGskew(1024, 10, true) },
		"bimode":     func() (ev8pred.Predictor, error) { return ev8pred.NewBimode(1024, 256, 10) },
		"yags":       func() (ev8pred.Predictor, error) { return ev8pred.NewYAGS(1024, 1024, 10) },
		"agree":      func() (ev8pred.Predictor, error) { return ev8pred.NewAgree(1024, 1024, 10) },
		"local":      func() (ev8pred.Predictor, error) { return ev8pred.NewLocal(1024, 10) },
		"perceptron": func() (ev8pred.Predictor, error) { return ev8pred.NewPerceptron(256, 12) },
		"dhlf":       func() (ev8pred.Predictor, error) { return ev8pred.NewDHLF(1024, 12, 256) },
		"hybrid": func() (ev8pred.Predictor, error) {
			l, err := ev8pred.NewLocal(256, 8)
			if err != nil {
				return nil, err
			}
			g, err := ev8pred.NewGshare(1024, 10)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewHybrid(l, g, 256)
		},
		"cascade": func() (ev8pred.Predictor, error) {
			backup, err := ev8pred.NewPerceptron(256, 12)
			if err != nil {
				return nil, err
			}
			return ev8pred.NewCascade(ev8pred.NewEV8(), backup, 0)
		},
		"2bcgskew": func() (ev8pred.Predictor, error) { return ev8pred.New2BcGskew(ev8pred.Config512K()) },
		"ev8-config": func() (ev8pred.Predictor, error) {
			return ev8pred.NewEV8WithConfig(ev8pred.EV8Config{PartialUpdate: true})
		},
	}
}
