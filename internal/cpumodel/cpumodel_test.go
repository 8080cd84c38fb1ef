package cpumodel

import (
	"math"
	"testing"

	"binopt/internal/device"
)

func TestReferenceCalibration(t *testing.T) {
	m := New(device.XeonX5450())
	// Paper Table II: 222 options/s double, 116 single, at N=1024.
	d, err := m.OptionsPerSec(1024, false)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-222) > 6 {
		t.Errorf("double = %.1f options/s, want ~222", d)
	}
	s, err := m.OptionsPerSec(1024, true)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s-116) > 4 {
		t.Errorf("single = %.1f options/s, want ~116", s)
	}
	if s >= d {
		t.Error("the published reference is slower in single precision")
	}
}

func TestThroughputScalesQuadratically(t *testing.T) {
	m := New(device.XeonX5450())
	a, err := m.OptionsPerSec(256, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.OptionsPerSec(512, false)
	if err != nil {
		t.Fatal(err)
	}
	// Doubling the depth roughly quadruples the node count.
	ratio := a / b
	if ratio < 3.9 || ratio > 4.1 {
		t.Errorf("depth-doubling throughput ratio = %.2f, want ~4", ratio)
	}
}

func TestSeconds(t *testing.T) {
	m := New(device.XeonX5450())
	ps, err := m.OptionsPerSec(1024, false)
	if err != nil {
		t.Fatal(err)
	}
	if sec := 2220 / ps; math.Abs(sec-10) > 0.5 {
		t.Errorf("2220 options should take ~10 s, got %.2f", sec)
	}
	if _, err := m.OptionsPerSec(0, false); err == nil {
		t.Error("zero steps should fail")
	}
}

func TestPowerIsTDP(t *testing.T) {
	m := New(device.XeonX5450())
	if m.PowerWatts() != 120 {
		t.Errorf("power = %v", m.PowerWatts())
	}
}
