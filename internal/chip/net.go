package chip

// The communication subsystem (Section 4.1): the SEND datapath with GTLB
// translation and protection checks, the network input interface that fills
// the register-mapped message queues, and the return-to-sender throttling
// protocol.

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/gp"
	"repro/internal/gtlb"
	"repro/internal/isa"
	"repro/internal/noc"
	"repro/internal/trace"
)

// gtlbToNoc converts between the two packages' coordinate types.
func gtlbToNoc(n gtlb.NodeID) noc.Coord { return noc.Coord{X: n.X, Y: n.Y, Z: n.Z} }

// executeSend implements SEND and SENDN. SEND translates the destination
// virtual address through the GTLB and launches atomically; SENDN is the
// privileged node-addressed form used by system reply handlers.
func (c *Chip) executeSend(now int64, vt, cl int, th *cluster.HThread, op *isa.Op) {
	addrW := c.readSrc(vt, cl, th, op.Src1)
	dipW := c.readSrc(vt, cl, th, op.Src2)

	if op.Code == isa.SENDN {
		idx := int(addrW.Bits)
		if idx < 0 || idx >= c.Net.NumNodes() {
			c.protFault(vt, cl, th, fmt.Sprintf("sendn to bad node %d", idx))
			return
		}
		msg := c.newMsg(th, op, 1, c.Net.CoordOf(idx), addrW.Bits, dipW.Bits)
		c.send(msg)
		c.trace(trace.Event{Kind: trace.Send, Pri: 1, Addr: msg.DstAddr, DIP: msg.DIP, Len: int32(len(msg.Body))})
		return
	}

	// User-level SEND: the destination is a virtual address. Protection:
	// user threads must present a tagged pointer (the GTLB then guarantees
	// the message stays inside the sender's address space), and the DIP
	// must be registered ("If an illegal DIP is used, a fault will occur on
	// the sending thread before the message is sent").
	a := addrW.Bits
	if !th.Privileged {
		if !addrW.Ptr {
			c.protFault(vt, cl, th, "send to untagged address")
			return
		}
		if !c.validDIPs[dipW.Bits] {
			c.protFault(vt, cl, th, fmt.Sprintf("send with illegal DIP %d", dipW.Bits))
			return
		}
	}
	if addrW.Ptr {
		a = gp.Pointer(addrW.Bits).Addr()
	}
	home, err := c.GTLB.Translate(a)
	if err != nil {
		c.protFault(vt, cl, th, fmt.Sprintf("send to unmapped address %#x", a))
		return
	}
	// Throttling: reserve return-buffer space (checked in opReady).
	c.credits--
	msg := c.newMsg(th, op, 0, gtlbToNoc(home), a, dipW.Bits)
	c.send(msg)
	c.trace(trace.Event{Kind: trace.Send, Addr: a, Peer: trace.CoordOf(msg.Dst), DIP: msg.DIP, Len: int32(len(msg.Body))})
}

// newMsg builds a SEND's message: the body is the op.Imm integer
// registers starting at op.Dst.
func (c *Chip) newMsg(th *cluster.HThread, op *isa.Op, pri int, dst noc.Coord, dstAddr, dip uint64) *noc.Message {
	msg := c.Net.NewMessage(int(op.Imm))
	for i := range msg.Body {
		msg.Body[i] = th.Ints.Get(int(op.Dst.Index) + i)
	}
	msg.Pri, msg.Src, msg.Dst, msg.DstAddr, msg.DIP = pri, c.Node, dst, dstAddr, dip
	return msg
}

// networkInput drains delivered messages into the hardware message queues.
// Priority 1 (replies) is drained first. Arriving priority-0 messages
// generate the hardware consumed/returned acknowledgement.
func (c *Chip) networkInput(now int64) {
	for pri := noc.NumPriorities - 1; pri >= 0; pri-- {
		for {
			m := c.Net.Pop(c.Node, pri)
			if m == nil {
				break
			}
			c.receiveMsg(now, m)
		}
	}
}

func (c *Chip) receiveMsg(now int64, m *noc.Message) {
	if m.HWAck {
		if m.AckOK {
			// Destination consumed the message: release the reserved
			// return-buffer slot.
			c.credits++
		} else {
			// Message returned: hold it in the reserved buffer and resend
			// later (Section 4.1: "the reply contains the contents of the
			// original message which are copied into the buffer and resent
			// at a later time").
			c.MsgsReturned++
			at := now + c.Cfg.ResendDelay
			c.resends = append(c.resends, resend{msg: m.Orig, at: at})
			if at < c.resendNext {
				c.resendNext = at
			}
		}
		c.Net.Recycle(m)
		return
	}

	c.msgScratch = append(c.msgScratch[:0], isa.W(m.DIP), isa.W(m.DstAddr))
	c.msgScratch = append(c.msgScratch, m.Body...)
	accepted := c.msgq[m.Pri].PushWords(c.msgScratch)
	if m.Pri == 0 {
		ack := c.Net.NewMessage(0)
		ack.Pri, ack.Src, ack.Dst, ack.HWAck, ack.AckOK = 1, c.Node, m.Src, true, accepted
		if !accepted {
			// The returned contents travel back in the ack; m is not
			// recycled.
			ack.Orig = m
		}
		c.send(ack)
	}
	kind := trace.MsgRecv
	if !accepted {
		kind = trace.MsgReject
	}
	c.trace(trace.Event{Kind: kind, Pri: uint8(m.Pri), DIP: m.DIP, Peer: trace.CoordOf(m.Src)})
	if accepted || m.Pri != 0 {
		c.Net.Recycle(m)
	}
}

// resendReturned re-injects returned messages whose backoff has expired.
// The messages still hold their buffer reservation, so no credit check.
func (c *Chip) resendReturned(now int64) {
	if now < c.resendNext {
		return
	}
	kept := c.resends[:0]
	next := NoEvent
	for _, r := range c.resends {
		if r.at > now {
			kept = append(kept, r)
			if r.at < next {
				next = r.at
			}
			continue
		}
		// The returned message is this chip's alone now: re-inject it
		// as a fresh message.
		m := r.msg
		*m = noc.Message{Pri: m.Pri, Src: c.Node, Dst: m.Dst, DIP: m.DIP, DstAddr: m.DstAddr, Body: m.Body}
		c.send(m)
		c.trace(trace.Event{Kind: trace.Resend, DIP: m.DIP, Peer: trace.CoordOf(m.Dst)})
	}
	for i := len(kept); i < len(c.resends); i++ {
		c.resends[i] = resend{}
	}
	c.resends = kept
	c.resendNext = next
}
