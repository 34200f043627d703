package core

import (
	"testing"
	"time"

	"tiger/internal/obs"
)

func TestCPUCharges(t *testing.T) {
	c := CPU{Model: CPUModel{
		PerDataByte: 10 * time.Nanosecond,
		PerCtlMsg:   time.Microsecond,
		PerDiskOp:   time.Millisecond,
		PerStartReq: time.Second,
	}}
	c.ChargeData(100)
	c.ChargeCtlMsg()
	c.ChargeDiskOp()
	c.ChargeStartReq()
	want := 1000*time.Nanosecond + time.Microsecond + time.Millisecond + time.Second
	if c.Busy() != want {
		t.Fatalf("busy %v, want %v", c.Busy(), want)
	}
}

func TestCPUCalibration(t *testing.T) {
	// §5: a cub sending 43 primary streams plus its mirroring share
	// (13.4 MB/s total) ran at just over 80% CPU and never above 85%.
	c := CPU{Model: DefaultCPUModel()}
	c.ChargeData(13_400_000) // one second of failed-mode sending
	load := obs.Load(0, c.Busy(), time.Second)
	if load < 0.75 || load > 0.88 {
		t.Fatalf("failed-mode packetization load %.2f, want ~0.83", load)
	}
}
