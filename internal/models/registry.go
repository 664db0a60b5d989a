package models

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"fast/internal/hlo"
)

// Build constructs a workload graph by canonical name at the given batch
// size. Recognized names:
//
//	efficientnet-b0 .. efficientnet-b7
//	resnet50
//	bert-128, bert-1024 (or bert-<seq> for any sequence length)
//	ocr-rpn, ocr-recognizer
//	gpt2-prefill-<seq>, gpt2-decode-<ctx> (GPT-2-small serving phases)
//	gpt2-local-prefill-<seq>, gpt2-local-decode-<ctx> (block-local attention)
func Build(name string, batch int64) (*hlo.Graph, error) {
	b, err := builder(name)
	if err != nil {
		return nil, err
	}
	return b(batch), nil
}

// Validate reports whether name is a recognized workload, without
// constructing its graph (graph construction is the expensive part;
// callers that only need to fail fast on typos use this).
func Validate(name string) error {
	_, err := builder(name)
	return err
}

// builder resolves a workload name to its graph constructor.
func builder(name string) (func(batch int64) *hlo.Graph, error) {
	switch {
	case strings.HasPrefix(name, "efficientnet-b"):
		v, err := strconv.Atoi(strings.TrimPrefix(name, "efficientnet-b"))
		if err != nil || v < 0 || v > 7 {
			return nil, fmt.Errorf("models: bad EfficientNet variant in %q", name)
		}
		return func(batch int64) *hlo.Graph { return EfficientNet(v, batch) }, nil
	case name == "resnet50":
		return resNet50v2, nil
	case strings.HasPrefix(name, "bert-"):
		seq, err := strconv.ParseInt(strings.TrimPrefix(name, "bert-"), 10, 64)
		if err != nil || seq < 1 {
			return nil, fmt.Errorf("models: bad BERT sequence length in %q", name)
		}
		return func(batch int64) *hlo.Graph { return bert(bertBaseConfig(batch, seq)) }, nil
	case name == "ocr-rpn":
		return ocrRPN, nil
	case name == "ocr-recognizer":
		return ocrRecognizer, nil
	case name == "mobilenetv2":
		return mobileNetV2, nil
	case strings.HasPrefix(name, "gpt2-"):
		return gptBuilder(name)
	}
	return nil, fmt.Errorf("models: unknown workload %q (known: %s)",
		name, strings.Join(Names(), ", "))
}

// MustBuild is Build that panics on error; for tests and examples.
func MustBuild(name string, batch int64) *hlo.Graph {
	g, err := Build(name, batch)
	if err != nil {
		panic(err)
	}
	return g
}

// gptLocalWindow is the block width of the "local" (SPLAT-style
// block-local sparse attention) GPT workload variants.
const gptLocalWindow = 256

// gptBuilder parses gpt2-[local-]{prefill,decode}-<n> workload names.
func gptBuilder(name string) (func(batch int64) *hlo.Graph, error) {
	rest := strings.TrimPrefix(name, "gpt2-")
	var window int64
	if strings.HasPrefix(rest, "local-") {
		rest, window = strings.TrimPrefix(rest, "local-"), int64(gptLocalWindow)
	}
	phase, num, ok := strings.Cut(rest, "-")
	if !ok {
		return nil, fmt.Errorf("models: bad GPT workload %q (want gpt2-[local-]{prefill,decode}-<n>)", name)
	}
	n, err := strconv.ParseInt(num, 10, 64)
	if err != nil || n < 1 {
		return nil, fmt.Errorf("models: bad GPT context length in %q", name)
	}
	switch phase {
	case "prefill":
		if window > 0 && n%window != 0 {
			return nil, fmt.Errorf("models: %q needs a sequence length divisible by the %d-wide attention block", name, gptLocalWindow)
		}
		return func(batch int64) *hlo.Graph {
			cfg := gpt2SmallConfig(batch, n)
			cfg.LocalWindow = window
			return gptPrefill(cfg)
		}, nil
	case "decode":
		return func(batch int64) *hlo.Graph {
			cfg := gpt2SmallConfig(batch, n)
			cfg.LocalWindow = window
			return gptDecode(cfg)
		}, nil
	}
	return nil, fmt.Errorf("models: bad GPT phase in %q (want prefill or decode)", name)
}

// Names lists every canonical workload name.
func Names() []string {
	out := []string{
		"resnet50", "bert-128", "bert-1024", "ocr-rpn", "ocr-recognizer", "mobilenetv2",
		"gpt2-prefill-128", "gpt2-prefill-1024", "gpt2-decode-1024",
		"gpt2-local-prefill-1024", "gpt2-local-decode-1024",
	}
	for v := 0; v <= 7; v++ {
		out = append(out, fmt.Sprintf("efficientnet-b%d", v))
	}
	sort.Strings(out)
	return out
}

// FullSuite is the paper's complete benchmark list (Figures 9-10): the
// EfficientNet family, BERT at both sequence lengths, ResNet-50v2, and
// the two OCR stages.
func FullSuite() []string {
	return []string{
		"efficientnet-b0", "efficientnet-b1", "efficientnet-b2",
		"efficientnet-b3", "efficientnet-b4", "efficientnet-b5",
		"efficientnet-b6", "efficientnet-b7",
		"resnet50", "ocr-rpn", "ocr-recognizer",
		"bert-128", "bert-1024",
	}
}

// MultiWorkloadSuite is the 5-workload set the paper's multi-workload
// design optimizes over ("GeoMean-5"): EfficientNet-B7, ResNet-50,
// OCR-RPN, OCR-Recognizer, BERT-1024.
func MultiWorkloadSuite() []string {
	return []string{"efficientnet-b7", "resnet50", "ocr-rpn", "ocr-recognizer", "bert-1024"}
}
