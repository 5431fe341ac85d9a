package hsmodel

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"
)

// decodeStrict decodes data into v the way the server reads a request body:
// unknown fields refused, exactly one JSON value.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); !errors.Is(err, io.EOF) {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// checkConfig fails unless every Table 2 quantity of hw is at least 1, the
// rule ConfigFromWire enforces.
func checkConfig(t *testing.T, hw Config) {
	t.Helper()
	v := reflect.ValueOf(hw)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).Int() < 1 {
			t.Fatalf("accepted config %+v has %s below 1", hw, v.Type().Field(i).Name)
		}
	}
}

// checkShards fails unless an accepted request resolved to at least one
// shard of finite characteristics on a valid configuration.
func checkShards(t *testing.T, xs []Characteristics, hw Config) {
	t.Helper()
	if len(xs) == 0 {
		t.Fatal("accepted request resolved to no shards")
	}
	for i, x := range xs {
		for j, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("accepted shard %d characteristic %d is %v", i, j, v)
			}
		}
	}
	checkConfig(t, hw)
}

// FuzzWireDecode feeds arbitrary bytes to the wire decode of the three
// request bodies the server validates: a predict request (ShardInputs), a
// batch of them, and a profile sample (SampleWire.ToSample). Each either
// decodes to finite, validated values or fails with an error; it never
// panics. Run it with
//
//	go test -run '^$' -fuzz '^FuzzWireDecode$' -fuzztime 10s ./pkg/hsmodel
func FuzzWireDecode(f *testing.F) {
	x := `[0.1,0.2,0.1,0.05,0.02,0.3,0.1,0.05,0.1,0.2,0.1,0.3,0.02]`
	for _, seed := range []string{
		`{"x":` + x + `}`,
		`{"x":` + x + `,"arch":[3,5,2,4,3,3,4,0,3,1,2,1,3]}`,
		`{"shards":[` + x + `,` + x + `],"config":{"Width":4,"LSQ":32,"PhysRegs":96,"IQ":32,"ROB":96,"L1Assoc":2,"L2Assoc":8,"MSHRs":8,"DCacheKB":32,"ICacheKB":32,"L2KB":1024,"L2Lat":12,"IntALUs":2,"IntMuls":1,"FPALUs":1,"FPMuls":1,"Ports":2}}`,
		`{"x":` + x + `,"config":{"Width":0}}`,
		`{"x":[1e308,1,1,1,1,1,1,1,1,1,1,1,1],"arch":[99,0,0,0,0,0,0,0,0,0,0,0,0]}`,
		`{"requests":[{"x":` + x + `},{"shards":[` + x + `]},{"x":[1]}]}`,
		`{"app_id":0,"x":` + x + `,"cpi":1.5}`,
		`{"app_id":2,"shard":7,"x":` + x + `,"arch":[0,0,0,0,0,0,0,0,0,0,0,0,0],"cpi":0}`,
		`{"x":1e400}`,
		`{"x":` + x + `} {}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req PredictRequest
		if decodeStrict(data, &req) == nil {
			if xs, hw, err := req.ShardInputs(); err == nil {
				checkShards(t, xs, hw)
			}
		}
		var batch BatchPredictRequest
		if decodeStrict(data, &batch) == nil {
			for _, item := range batch.Requests {
				if xs, hw, err := item.ShardInputs(); err == nil {
					checkShards(t, xs, hw)
				}
			}
		}
		var sw SampleWire
		if decodeStrict(data, &sw) == nil {
			if s, err := sw.ToSample(); err == nil {
				if !(s.CPI > 0) || math.IsInf(s.CPI, 0) {
					t.Fatalf("accepted sample CPI %v", s.CPI)
				}
				checkShards(t, []Characteristics{s.X}, s.HW)
			}
		}
	})
}
