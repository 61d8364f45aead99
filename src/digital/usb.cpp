#include "digital/usb.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace mgt::dig {
namespace {

/// Retries per packet before a transfer gives up.
constexpr std::size_t kMaxRetries = 8;

}  // namespace

std::uint8_t usb_crc5(std::uint16_t data11) {
  // Bitwise LSB-first CRC5, poly x^5 + x^2 + 1 (0x05), init 0x1F, inverted.
  std::uint8_t crc = 0x1F;
  for (int i = 0; i < 11; ++i) {
    const bool bit = (data11 >> i) & 1u;
    const bool top = (crc >> 4) & 1u;
    crc = static_cast<std::uint8_t>((crc << 1) & 0x1F);
    if (bit != top) {
      crc ^= 0x05;
    }
  }
  return static_cast<std::uint8_t>(~crc & 0x1F);
}

std::uint16_t usb_crc16(const std::vector<std::uint8_t>& data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    for (int i = 0; i < 8; ++i) {
      const bool bit = (byte >> i) & 1u;
      const bool top = (crc >> 15) & 1u;
      crc = static_cast<std::uint16_t>(crc << 1);
      if (bit != top) {
        crc ^= 0x8005;  // x^16 + x^15 + x^2 + 1
      }
    }
  }
  return static_cast<std::uint16_t>(~crc);
}

std::uint8_t pid_byte(Pid pid) {
  const auto p = static_cast<std::uint8_t>(pid);
  return static_cast<std::uint8_t>(p | ((~p & 0xF) << 4));
}

std::optional<Pid> decode_pid(std::uint8_t byte) {
  const std::uint8_t lo = byte & 0xF;
  const std::uint8_t hi = (byte >> 4) & 0xF;
  if ((lo ^ hi) != 0xF) {
    return std::nullopt;  // complement check failed: corrupted PID
  }
  return static_cast<Pid>(lo);
}

Wire TokenPacket::serialize() const {
  const std::uint16_t field =
      static_cast<std::uint16_t>(address & 0x7F) |
      static_cast<std::uint16_t>((endpoint & 0xF) << 7);
  const std::uint16_t with_crc =
      static_cast<std::uint16_t>(field | (usb_crc5(field) << 11));
  return {pid_byte(pid), static_cast<std::uint8_t>(with_crc & 0xFF),
          static_cast<std::uint8_t>(with_crc >> 8)};
}

std::optional<TokenPacket> TokenPacket::deserialize(const Wire& wire) {
  if (wire.size() != 3) {
    return std::nullopt;
  }
  const auto pid = decode_pid(wire[0]);
  if (!pid) {
    return std::nullopt;
  }
  const std::uint16_t with_crc =
      static_cast<std::uint16_t>(wire[1] | (wire[2] << 8));
  const std::uint16_t field = with_crc & 0x7FF;
  if (usb_crc5(field) != (with_crc >> 11)) {
    return std::nullopt;
  }
  TokenPacket token;
  token.pid = *pid;
  token.address = field & 0x7F;
  token.endpoint = (field >> 7) & 0xF;
  return token;
}

Wire DataPacket::serialize() const {
  Wire wire;
  wire.reserve(payload.size() + 3);
  wire.push_back(pid_byte(pid));
  wire.insert(wire.end(), payload.begin(), payload.end());
  const std::uint16_t crc = usb_crc16(payload);
  wire.push_back(static_cast<std::uint8_t>(crc & 0xFF));
  wire.push_back(static_cast<std::uint8_t>(crc >> 8));
  return wire;
}

std::optional<DataPacket> DataPacket::deserialize(const Wire& wire) {
  if (wire.size() < 3) {
    return std::nullopt;
  }
  const auto pid = decode_pid(wire[0]);
  if (!pid || (*pid != Pid::Data0 && *pid != Pid::Data1)) {
    return std::nullopt;
  }
  DataPacket packet;
  packet.pid = *pid;
  packet.payload.assign(wire.begin() + 1, wire.end() - 2);
  const std::uint16_t crc =
      static_cast<std::uint16_t>(wire[wire.size() - 2] |
                                 (wire[wire.size() - 1] << 8));
  if (usb_crc16(packet.payload) != crc) {
    return std::nullopt;
  }
  return packet;
}

namespace usbreq {

Wire make_write(std::uint16_t addr, std::uint32_t value) {
  return {kWriteRegister,
          static_cast<std::uint8_t>(addr & 0xFF),
          static_cast<std::uint8_t>(addr >> 8),
          static_cast<std::uint8_t>(value & 0xFF),
          static_cast<std::uint8_t>((value >> 8) & 0xFF),
          static_cast<std::uint8_t>((value >> 16) & 0xFF),
          static_cast<std::uint8_t>((value >> 24) & 0xFF)};
}

Wire make_read(std::uint16_t addr) {
  return {kReadRegister, static_cast<std::uint8_t>(addr & 0xFF),
          static_cast<std::uint8_t>(addr >> 8)};
}

}  // namespace usbreq

UsbDevice::UsbDevice(std::uint8_t address, ControlHandler handler)
    : address_(address), handler_(std::move(handler)) {
  MGT_CHECK(address_ <= 127, "USB address is 7 bits");
  MGT_CHECK(static_cast<bool>(handler_), "device needs a control handler");
}

std::optional<Pid> UsbDevice::on_setup(const Wire& token_wire,
                                       const Wire& data_wire) {
  const auto token = TokenPacket::deserialize(token_wire);
  if (!token || token->address != address_) {
    return std::nullopt;
  }
  if (token->pid != Pid::Setup && token->pid != Pid::Out) {
    return std::nullopt;
  }
  const auto data = DataPacket::deserialize(data_wire);
  if (!data) {
    return std::nullopt;  // corrupted data stage: stay silent, host retries
  }
  const bool toggle = data->pid == Pid::Data1;
  if (token->pid == Pid::Setup) {
    // SETUP always re-synchronizes the toggle to DATA0.
    if (data->pid != Pid::Data0) {
      return std::nullopt;
    }
    expected_toggle_ = false;
  } else if (toggle != expected_toggle_) {
    // Duplicate of a data stage we already processed — the previous ACK
    // was lost. Re-ACK without reprocessing (USB 2.0 sec 8.6.4 semantics).
    return Pid::Ack;
  }
  pending_response_ = handler_(data->payload);
  expected_toggle_ = !expected_toggle_;
  in_toggle_ = true;  // IN stage of a control transfer starts with DATA1
  return Pid::Ack;
}

void UsbDevice::set_bulk_handler(std::uint8_t endpoint, BulkHandler handler) {
  MGT_CHECK(endpoint >= 1 && endpoint <= 15, "bulk endpoints are 1..15");
  MGT_CHECK(static_cast<bool>(handler));
  bulk_endpoints_[endpoint].handler = std::move(handler);
}

std::optional<Pid> UsbDevice::on_bulk_out(const Wire& token_wire,
                                          const Wire& data_wire) {
  const auto token = TokenPacket::deserialize(token_wire);
  if (!token || token->address != address_ || token->pid != Pid::Out) {
    return std::nullopt;
  }
  const auto ep = bulk_endpoints_.find(token->endpoint);
  if (ep == bulk_endpoints_.end()) {
    return Pid::Stall;  // no such endpoint configured
  }
  const auto data = DataPacket::deserialize(data_wire);
  if (!data) {
    return std::nullopt;  // corrupted: silent, host retries
  }
  const bool toggle = data->pid == Pid::Data1;
  if (toggle != ep->second.expected_toggle) {
    // Retransmission of a chunk we already took: re-ACK, don't append.
    return Pid::Ack;
  }
  ep->second.expected_toggle = !ep->second.expected_toggle;
  ep->second.assembly.insert(ep->second.assembly.end(),
                             data->payload.begin(), data->payload.end());
  if (data->payload.size() < kBulkMaxPacket) {
    // Short packet terminates the transfer. If the device function
    // rejects the content, the endpoint stalls and resets its pipe state
    // (what a real device does via the STALL handshake + clear-feature).
    std::vector<std::uint8_t> transfer;
    transfer.swap(ep->second.assembly);
    try {
      ep->second.handler(transfer);
    } catch (...) {
      ep->second.expected_toggle = false;
      return Pid::Stall;
    }
  }
  return Pid::Ack;
}

std::optional<Wire> UsbDevice::on_in(const Wire& token_wire) {
  const auto token = TokenPacket::deserialize(token_wire);
  if (!token || token->address != address_ || token->pid != Pid::In) {
    return std::nullopt;
  }
  if (!pending_response_) {
    DataPacket nak;  // NAK handshake travels as a bare PID on the wire
    return Wire{pid_byte(Pid::Nak)};
  }
  DataPacket data;
  data.pid = in_toggle_ ? Pid::Data1 : Pid::Data0;
  data.payload = *pending_response_;
  return data.serialize();
}

void UsbDevice::on_host_handshake(Pid handshake) {
  if (handshake == Pid::Ack && pending_response_) {
    pending_response_.reset();
    in_toggle_ = !in_toggle_;
  }
}

UsbHost::UsbHost(UsbDevice& device) : device_(device) {}

Wire UsbHost::transmit(Wire wire) {
  if (corruptor_) {
    corruptor_(wire);
  }
  return wire;
}

void UsbHost::control_write(const std::vector<std::uint8_t>& request) {
  TokenPacket token{.pid = Pid::Setup, .address = device_.address(),
                    .endpoint = 0};
  DataPacket data{.pid = Pid::Data0, .payload = request};
  for (std::size_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    const auto handshake =
        device_.on_setup(transmit(token.serialize()), transmit(data.serialize()));
    if (handshake == Pid::Ack) {
      return;
    }
    ++retries_total_;
  }
  throw Error("USB control_write: retries exhausted");
}

std::vector<std::uint8_t> UsbHost::control_read(
    const std::vector<std::uint8_t>& request) {
  control_write(request);
  TokenPacket in_token{.pid = Pid::In, .address = device_.address(),
                       .endpoint = 0};
  for (std::size_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
    const auto response_wire = device_.on_in(transmit(in_token.serialize()));
    if (!response_wire) {
      ++retries_total_;
      continue;
    }
    Wire received = transmit(*response_wire);
    if (received.size() == 1) {
      // Handshake (NAK): device not ready; retry.
      ++retries_total_;
      continue;
    }
    const auto data = DataPacket::deserialize(received);
    if (!data) {
      ++retries_total_;
      continue;  // corrupted response; re-issue IN
    }
    device_.on_host_handshake(Pid::Ack);
    return data->payload;
  }
  throw Error("USB control_read: retries exhausted");
}

void UsbHost::bulk_write(std::uint8_t endpoint,
                         const std::vector<std::uint8_t>& payload) {
  TokenPacket token{.pid = Pid::Out, .address = device_.address(),
                    .endpoint = endpoint};
  // The data toggle is a property of the pipe, not of one transfer: it
  // carries over between bulk_write calls (USB 2.0 section 8.6).
  bool& toggle = bulk_toggle_[endpoint];
  std::size_t offset = 0;
  bool sent_short = false;
  while (!sent_short) {
    const std::size_t chunk =
        std::min(kBulkMaxPacket, payload.size() - offset);
    DataPacket data;
    data.pid = toggle ? Pid::Data1 : Pid::Data0;
    data.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                        payload.begin() +
                            static_cast<std::ptrdiff_t>(offset + chunk));
    sent_short = chunk < kBulkMaxPacket;  // includes the terminating ZLP

    bool acked = false;
    for (std::size_t attempt = 0; attempt <= kMaxRetries; ++attempt) {
      const auto handshake = device_.on_bulk_out(
          transmit(token.serialize()), transmit(data.serialize()));
      if (handshake == Pid::Ack) {
        acked = true;
        break;
      }
      if (handshake == Pid::Stall) {
        // Clear-feature semantics: the pipe restarts at DATA0.
        toggle = false;
        bulk_toggle_[endpoint] = false;
        throw Error("USB bulk_write: endpoint stalled");
      }
      ++retries_total_;
    }
    if (!acked) {
      throw Error("USB bulk_write: retries exhausted");
    }
    offset += chunk;
    toggle = !toggle;
  }
}

void UsbHost::write_register(std::uint16_t addr, std::uint32_t value) {
  control_write(usbreq::make_write(addr, value));
}

std::uint32_t UsbHost::read_register(std::uint16_t addr) {
  const auto payload = control_read(usbreq::make_read(addr));
  MGT_CHECK(payload.size() == 4, "register read returns 4 bytes");
  return static_cast<std::uint32_t>(payload[0]) |
         static_cast<std::uint32_t>(payload[1]) << 8 |
         static_cast<std::uint32_t>(payload[2]) << 16 |
         static_cast<std::uint32_t>(payload[3]) << 24;
}

}  // namespace mgt::dig
