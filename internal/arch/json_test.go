package arch

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range designNames() {
		orig := ByName(name)
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := new(Config)
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *got != *orig {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", name, got, orig)
		}
	}
}

func TestJSONRoundTripRandom(t *testing.T) {
	s := Space{}
	r := rand.New(rand.NewSource(21))
	for i := 0; i < 200; i++ {
		orig := s.Random(r, FASTLarge())
		data, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		got := new(Config)
		if err := json.Unmarshal(data, got); err != nil {
			t.Fatalf("unmarshal: %v\n%s", err, data)
		}
		if *got != *orig {
			t.Fatalf("round trip mismatch")
		}
	}
}

func TestJSONFieldNamesMatchTable3(t *testing.T) {
	data, err := json.Marshal(TPUv3())
	if err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{
		"pes_x_dim", "systolic_array_x", "vector_unit_multiplier",
		"l1_buffer_config", "l2_buffer_config", "l3_global_buffer_size_mib",
		"native_batch_size",
	} {
		if !strings.Contains(string(data), field) {
			t.Errorf("JSON missing Table 3 field %q", field)
		}
	}
}

func TestUnmarshalRejectsInvalid(t *testing.T) {
	cases := map[string]string{
		"bad buffer config": `{"l1_buffer_config":"wide-open","l2_buffer_config":"disabled","memory_technology":"gddr6"}`,
		"bad mem tech":      `{"l1_buffer_config":"shared","l2_buffer_config":"disabled","memory_technology":"ddr3"}`,
		"bad json":          `{`,
		"out-of-domain":     `{"name":"x","pes_x_dim":3,"pes_y_dim":1,"systolic_array_x":32,"systolic_array_y":32,"vector_unit_multiplier":1,"l1_buffer_config":"shared","l1_input_buffer_size_kib":8,"l1_weight_buffer_size_kib":8,"l1_output_buffer_size_kib":8,"l2_buffer_config":"disabled","l3_global_buffer_size_mib":128,"memory_channels":8,"memory_technology":"gddr6","native_batch_size":8,"cores":1,"clock_ghz":1}`,
	}
	for name, data := range cases {
		c := new(Config)
		if err := json.Unmarshal([]byte(data), c); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "design.json")
	orig := FASTLarge()
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if *got != *orig {
		t.Error("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("invalid design must error")
	}
}
