package core

import "time"

// CPUModel holds the per-operation CPU costs used to model node load.
// The simulator has no real CPUs, but Figures 8-9 plot CPU load. The
// defaults are calibrated to the paper's Pentium-133 cubs: most CPU
// time went to packetizing video data ("We believe that most of the CPU
// time was spent packetizing the video data"), so cost is dominated by a
// per-data-byte charge, sized so a cub sending 43 2 Mbit/s streams plus
// its mirroring share runs at just over 80% CPU (§5).
type CPUModel struct {
	PerDataByte time.Duration // packetization cost per payload byte sent
	PerCtlMsg   time.Duration // handling one control message
	PerDiskOp   time.Duration // issuing and completing one disk read
	PerStartReq time.Duration // controller-side handling of a start/stop
}

// DefaultCPUModel returns the Pentium-133 calibration.
func DefaultCPUModel() CPUModel {
	return CPUModel{
		PerDataByte: 62 * time.Nanosecond,
		PerCtlMsg:   100 * time.Microsecond,
		PerDiskOp:   500 * time.Microsecond,
		PerStartReq: 2 * time.Millisecond,
	}
}

// CPU accumulates modelled busy time for one machine.
type CPU struct {
	Model CPUModel
	busy  time.Duration
}

// ChargeData charges the packetization cost for n payload bytes.
func (c *CPU) ChargeData(n int64) {
	c.busy += time.Duration(n) * c.Model.PerDataByte
}

// ChargeCtlMsg charges handling of one control message.
func (c *CPU) ChargeCtlMsg() { c.busy += c.Model.PerCtlMsg }

// ChargeDiskOp charges one disk operation.
func (c *CPU) ChargeDiskOp() { c.busy += c.Model.PerDiskOp }

// ChargeStartReq charges one start/stop request (controller).
func (c *CPU) ChargeStartReq() { c.busy += c.Model.PerStartReq }

// Busy returns cumulative modelled busy time.
func (c *CPU) Busy() time.Duration { return c.busy }
