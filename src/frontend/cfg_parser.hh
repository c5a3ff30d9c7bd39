/**
 * @file
 * Darknet-style .cfg frontend: parse a model config into a NetworkDef.
 *
 * Supported grammar subset (line oriented; '#' and ';' start
 * comments; keys are "key=value"):
 *
 *   [net]            width=, height=, channels= (required before the
 *                    first layer), batch= (optional, default 1);
 *                    training keys (momentum, learning_rate, ...) are
 *                    ignored.
 *   [convolutional]  filters= (required), size=1, stride=1, pad=0
 *                    (pad=1 means "same" padding size/2, darknet
 *                    convention), padding=0 (explicit border), groups=1,
 *                    dilation=1; batch_normalize/activation ignored.
 *   [connected]      output= (required); lowered to matmul-as-1x1 over
 *                    the flattened input.
 *   [maxpool]        stride=1, size=stride, padding=size-1; updates
 *                    the spatial cursor (ceil-div by stride), emits no
 *                    layer.
 *   [avgpool]        global pool: collapses the cursor to 1x1.
 *
 * Sections that leave layer shapes alone ([yolo], [region],
 * [detection], [dropout], [softmax], [cost]) are skipped *loudly* —
 * one warning with its line number. Any other section ([route],
 * [shortcut], [upsample], anything unknown) could change the input
 * shape of later layers, so it raises FatalError rather than plan
 * them wrong. Malformed input (non-key=value line, non-integer value,
 * zero filters, a truncated section missing a required key, a conv
 * before [net] dimensions) raises FatalError too; every error carries
 * "source:line:" context.
 */

#ifndef MOPT_FRONTEND_CFG_PARSER_HH
#define MOPT_FRONTEND_CFG_PARSER_HH

#include <string>

#include "frontend/network_def.hh"

namespace mopt {

/**
 * Parse .cfg text into a NetworkDef. @p source names the origin (file
 * path) for error messages; the network is named after its basename.
 */
NetworkDef parseCfgText(const std::string &text, const std::string &source);

/** Read @p path and parse it; FatalError when unreadable. */
NetworkDef parseCfgFile(const std::string &path);

} // namespace mopt

#endif // MOPT_FRONTEND_CFG_PARSER_HH
